"""Sample sets: the result type every sampler returns.

Mirrors the slice of ``dimod.SampleSet`` the paper's experiments need:
samples with energies and occurrence counts, best-sample access, and
solver-reported timing info (annealing time per shot, shot count, total
runtime in microseconds — the quantities Tables V-VII sweep).
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field

import numpy as np

__all__ = ["RowAssignment", "Sample", "SampleSet", "matrix_rows"]


class RowAssignment(Mapping):
    """Lazy variable->value mapping over one raw sampler state row.

    Samplers that advance replicas as a matrix produce thousands of
    samples whose assignments are mostly never read individually;
    building a real dict per replica dominates their result
    construction.  This view holds the shared variable order plus the
    row's values and materialises an actual dict only on first access,
    so constructing a sample set is O(1) per sample while every Mapping
    operation (and equality with plain dicts) behaves exactly as the
    eager dict did.
    """

    __slots__ = ("_order", "_row", "_dict")

    def __init__(self, order: Sequence[object], row: Sequence[int]) -> None:
        self._order = order
        self._row = row
        self._dict: dict | None = None

    @property
    def order(self) -> Sequence[object]:
        """The shared variable order the row is laid out over."""
        return self._order

    @property
    def row(self) -> Sequence[int]:
        """The raw state row (not copied)."""
        return self._row

    def _materialise(self) -> dict:
        d = self._dict
        if d is None:
            row = self._row
            # Sampler rows arrive as int8 ndarray views; tolist() both
            # converts to Python ints and is deferred to first access.
            if hasattr(row, "tolist"):
                row = row.tolist()
            d = self._dict = dict(zip(self._order, row))
        return d

    def __getitem__(self, variable: object) -> int:
        return self._materialise()[variable]

    def __iter__(self):
        return iter(self._materialise())

    def __len__(self) -> int:
        return len(self._order)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, RowAssignment):
            return self._materialise() == other._materialise()
        if isinstance(other, dict):
            return self._materialise() == other
        if isinstance(other, Mapping):
            return self._materialise() == dict(other)
        return NotImplemented

    __hash__ = None  # mutable-adjacent, like the dicts it replaces

    def __repr__(self) -> str:
        return repr(self._materialise())


def matrix_rows(
    samples: Sequence["Sample"], order: Sequence[object]
) -> dict[int, np.ndarray]:
    """Sample index -> integer state row, for rows laid out over ``order``.

    Covers every sample whose assignment is a :class:`RowAssignment`
    over exactly ``order`` with a 1-D integer row of matching length —
    what the built-in samplers produce.  Other samples (plain dicts,
    other layouts, non-integer rows) are left out for per-row handling.
    """
    order = list(order)
    same_order: dict[int, bool] = {}
    rows: dict[int, np.ndarray] = {}
    for i, sample in enumerate(samples):
        view = sample.assignment
        if not isinstance(view, RowAssignment):
            continue
        # Every view of one sampler call shares one order object.
        key = id(view.order)
        if key not in same_order:
            same_order[key] = list(view.order) == order
        row = view.row
        if (
            same_order[key]
            and isinstance(row, np.ndarray)
            and row.shape == (len(order),)
            and row.dtype.kind in "biu"
        ):
            rows[i] = row
    return rows


@dataclass(frozen=True)
class Sample:
    """One assignment with its energy and multiplicity."""

    assignment: Mapping[object, int]
    energy: float
    num_occurrences: int = 1

    def value(self, variable: object) -> int:
        return self.assignment[variable]


@dataclass
class SampleSet:
    """Samples sorted by energy plus solver metadata.

    Attributes
    ----------
    samples:
        All samples, ascending energy.
    info:
        Free-form solver metadata.  The built-in samplers populate
        ``annealing_time_us``, ``num_reads``, ``total_runtime_us``,
        ``sweeps_per_read``, and (QPU) ``chain_break_fraction``.
    """

    samples: list[Sample] = field(default_factory=list)
    info: dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # Sort a copy — callers keep ownership of the list they passed
        # in (fault-injection plans and test fixtures index into theirs).
        # Ties break on descending num_occurrences, then input order
        # (sorted() is stable), so equal-energy ordering is deterministic
        # across platforms and sampler backends.
        self.samples = sorted(
            self.samples, key=lambda s: (s.energy, -s.num_occurrences)
        )

    @property
    def first(self) -> Sample:
        """The lowest-energy sample."""
        if not self.samples:
            raise ValueError("empty sample set")
        return self.samples[0]

    @property
    def lowest_energy(self) -> float:
        return self.first.energy

    def __len__(self) -> int:
        return sum(s.num_occurrences for s in self.samples)

    def __iter__(self):
        return iter(self.samples)

    @classmethod
    def from_states(
        cls,
        states: Sequence[Mapping[object, int]],
        energies: Sequence[float],
        info: dict[str, object] | None = None,
    ) -> "SampleSet":
        """Aggregate raw states (duplicates merged) into a sample set."""
        seen: dict[tuple, Sample] = {}
        for assignment, energy in zip(states, energies):
            key = tuple(sorted(assignment.items(), key=lambda kv: str(kv[0])))
            if key in seen:
                old = seen[key]
                seen[key] = Sample(old.assignment, old.energy, old.num_occurrences + 1)
            else:
                seen[key] = Sample(dict(assignment), float(energy))
        return cls(list(seen.values()), info or {})

    @classmethod
    def from_counts(
        cls,
        assignments: Sequence[Mapping[object, int]],
        energies: Sequence[float],
        counts: Sequence[int],
        info: dict[str, object] | None = None,
    ) -> "SampleSet":
        """Build from **already-deduplicated** assignments with counts.

        The fast path for samplers that hold their replicas as a state
        matrix: merging duplicate rows by raw bytes before any Python
        dict exists is far cheaper than :meth:`from_states`' per-sample
        key sort, and yields the same sample set when the caller's
        grouping matches dict equality (same variables, same order in
        every row).  Assignments are stored as given — callers pass
        freshly built dicts (or :class:`RowAssignment` views) the
        sample can own.
        """
        samples = [
            Sample(assignment, float(energy), int(count))
            for assignment, energy, count in zip(assignments, energies, counts)
        ]
        return cls(samples, info or {})

    @classmethod
    def from_matrix(
        cls,
        order: Sequence[object],
        states: np.ndarray,
        energies: np.ndarray,
        info: dict[str, object] | None = None,
    ) -> "SampleSet":
        """Merge the duplicate rows of a state matrix into a sample set.

        ``states`` is a C-contiguous int8 ``(rows, len(order))`` matrix
        and ``energies`` its per-row energies.  Rows are grouped by raw
        bytes (a faithful key: every row shares ``order``) in first-seen
        order, each group keeping its first row's energy — the set
        :meth:`from_states` builds from one dict per row, without any
        dict: samples hold :class:`RowAssignment` views into ``states``.
        """
        width = states.shape[1]
        keys = (
            states.view(np.dtype((np.void, width))).ravel()
            if width
            else np.zeros(len(states), dtype=np.int8)  # all rows equal
        )
        _, first_idx, counts = np.unique(keys, return_index=True, return_counts=True)
        perm = np.argsort(first_idx, kind="stable")
        firsts = first_idx[perm]
        return cls.from_counts(
            [RowAssignment(order, row) for row in states[firsts]],
            np.asarray(energies)[firsts].tolist(),
            counts[perm].tolist(),
            info,
        )

    def state_matrix(self, order: Sequence[object]) -> np.ndarray:
        """One int8 row per shot over ``order``, in sample order.

        Each sample contributes ``num_occurrences`` copies of its row:
        the rows a per-shot loop over the set visits, in that order.
        Row views over ``order`` are copied as they are; other
        assignments are read variable by variable.
        """
        order = list(order)
        views = matrix_rows(self.samples, order)
        rows = [
            views[i] if i in views else [s.assignment[v] for v in order]
            for i, s in enumerate(self.samples)
        ]
        unique = np.array(rows, dtype=np.int8).reshape(len(rows), len(order))
        return np.repeat(
            unique, [s.num_occurrences for s in self.samples], axis=0
        )

    def truncate(self, count: int) -> "SampleSet":
        """The ``count`` lowest-energy samples as a new set."""
        return SampleSet(list(self.samples[:count]), dict(self.info))

    def filter(self, predicate) -> "SampleSet":
        """Samples for which ``predicate(sample)`` holds, as a new set.

        ``info`` is carried over; the result may be empty (callers that
        require a best sample must check before touching ``first``).
        """
        return SampleSet([s for s in self.samples if predicate(s)], dict(self.info))
