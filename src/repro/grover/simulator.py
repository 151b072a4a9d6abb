"""Grover search simulation on the vertex register.

Two execution backends share one interface:

* :class:`PhaseOracleGrover` — the workhorse.  Because the oracle's
  ``U_check / sign-flip / U_check^dag`` sandwich returns every ancilla
  to |0>, its net effect on the ``n`` vertex qubits is exactly a phase
  flip on marked basis states.  Starting from the uniform
  superposition, every Grover iterate therefore stays in
  span{|marked>, |unmarked>}: all ``M`` marked basis states share one
  amplitude and all ``N - M`` unmarked ones share another.  The engine
  keeps just those two scalars, so a run costs O(iterations) time and
  O(1) memory at any width.  The ``2^n`` amplitude vector, the
  measurement distribution and the Fig. 12 snapshots are expanded from
  the scalars only when asked for.  Measurement maps the uniform
  draw(s) that ``Generator.choice(N, p=...)`` would consume through the
  two-level CDF over the sorted marked array, so a seeded run returns
  the outcomes of a dense simulation draw for draw, up to ulp-level ties
  in the cumulative sums.  The dense ``2^n`` loop survives as the
  reference in ``tests/grover/test_two_amplitude.py``.

* :func:`grover_circuit` — the literal Fig. 11 circuit (state
  preparation, oracle placeholder, diffusion), dense-simulable for
  small ``n``, used for validation and for gate accounting.

The simulator records the success probability after every iteration
and, on request, the amplitudes behind the paper's Fig. 12 bar charts.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field, fields
from functools import cached_property

import numpy as np

from ..quantum import QuantumCircuit
from .diffusion import diffusion_circuit
from .iterations import optimal_iterations, success_probability

__all__ = ["GroverRun", "PhaseOracleGrover", "grover_circuit"]


@dataclass(eq=False)
class GroverRun:
    """Everything produced by one Grover execution.

    Attributes
    ----------
    num_qubits:
        The search-register width.
    iterations:
        Number of oracle+diffusion rounds applied.
    marked_amplitude, unmarked_amplitude:
        The two distinct real amplitudes of the final state: every
        marked basis state carries the first, every unmarked one the
        second.
    history:
        ``history[i]`` is the success probability after ``i``
        iterations (entry 0 is the uniform superposition).
    snapshots:
        ``{iteration: (marked_amplitude, unmarked_amplitude)}`` recorded
        after requested iterations; :attr:`amplitude_snapshots` expands
        them to vectors for Fig. 12-style plots.
    depolarization:
        Accumulated depolarizing weight (0 = noiseless).  With weight
        ``d`` the measurement distribution is ``(1-d) * |amp|^2 + d/N``
        — the register's state after a depolarizing channel — so the
        success probability is dampened toward ``M/N`` exactly as NISQ
        noise dampens it.
    sorted_marked:
        The marked basis states as an ascending ``int64`` array, which
        places the marked amplitude in the expanded views and is the
        second level of the measurement CDF.  :attr:`marked` is the
        same set as a frozenset, built on first read.  Runs compare
        equal only over equal marked sets.
    """

    num_qubits: int
    iterations: int
    marked_amplitude: float
    unmarked_amplitude: float
    history: list[float] = field(default_factory=list)
    snapshots: dict[int, tuple[float, float]] = field(default_factory=dict)
    depolarization: float = 0.0
    sorted_marked: np.ndarray = field(kw_only=True, repr=False)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GroverRun):
            return NotImplemented
        pairs = ((getattr(self, f.name), getattr(other, f.name)) for f in fields(self))
        return all(
            np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b
            for a, b in pairs
        )

    @cached_property
    def marked(self) -> frozenset[int]:
        """The marked basis states as a frozenset."""
        return frozenset(self.sorted_marked.tolist())

    @property
    def amplitudes(self) -> np.ndarray:
        """Final real amplitude vector over the ``2^n`` basis states."""
        return self._expand(self.marked_amplitude, self.unmarked_amplitude)

    @property
    def amplitude_snapshots(self) -> dict[int, np.ndarray]:
        """Amplitude vectors after the iterations named in ``snapshot_at``."""
        return {i: self._expand(*pair) for i, pair in self.snapshots.items()}

    @property
    def success_probability(self) -> float:
        """Probability that measurement yields a marked state."""
        num_marked = self.sorted_marked.size
        if not num_marked:
            return 0.0
        clean = num_marked * self.marked_amplitude ** 2
        if not self.depolarization:
            return clean
        uniform = num_marked / (1 << self.num_qubits)
        return (1.0 - self.depolarization) * clean + self.depolarization * uniform

    @property
    def error_probability(self) -> float:
        return 1.0 - self.success_probability

    def probabilities(self) -> np.ndarray:
        """The normalized measurement distribution over all basis states."""
        return self._expand(*self._levels())

    def measure(self, shots: int, rng: np.random.Generator | None = None) -> dict[int, int]:
        """Sample ``shots`` measurements; returns basis index -> count.

        Consumes ``rng.random(shots)``, the draws
        ``rng.choice(N, size=shots, p=self.probabilities())`` would, and
        returns the same outcomes.
        """
        rng = rng or np.random.default_rng()
        draws = self._collapse(rng.random(shots))
        values, counts = np.unique(draws, return_counts=True)
        return {int(v): int(c) for v, c in zip(values, counts)}

    def measure_once(self, rng: np.random.Generator | None = None) -> int:
        """A single measurement outcome (one ``rng.random()`` draw)."""
        rng = rng or np.random.default_rng()
        return int(self._collapse(np.array([rng.random()]))[0])

    def _expand(self, on_marked: float, off_marked: float) -> np.ndarray:
        vector = np.full(1 << self.num_qubits, off_marked)
        vector[self.sorted_marked] = on_marked
        return vector

    def _levels(self) -> tuple[float, float]:
        """Measurement probability of one marked and one unmarked state."""
        num_states = 1 << self.num_qubits
        num_marked = self.sorted_marked.size
        p_marked = self.marked_amplitude ** 2
        p_unmarked = self.unmarked_amplitude ** 2
        total = num_marked * p_marked + (num_states - num_marked) * p_unmarked
        p_marked, p_unmarked = p_marked / total, p_unmarked / total
        if self.depolarization:
            d = self.depolarization
            p_marked = (1.0 - d) * p_marked + d / num_states
            p_unmarked = (1.0 - d) * p_unmarked + d / num_states
        return p_marked, p_unmarked

    def _collapse(self, draws: np.ndarray) -> np.ndarray:
        """Basis states for uniform ``draws`` in [0, 1).

        ``Generator.choice(p=...)`` returns the first index whose
        cumulative probability exceeds the draw.  With ``j`` marked and
        ``q`` unmarked states at or below an index, that cumulative
        probability is ``q * p_u + j * p_m``.  A search over the sorted
        marked array finds how many marked states lie wholly below the
        draw; the draw then lands either on the next marked state or in
        the run of unmarked states before it, where one division finds
        the index.  O(M + draws * log M), no ``2^n`` array.
        """
        num_states = 1 << self.num_qubits
        p_marked, p_unmarked = self._levels()
        marked = self.sorted_marked
        if not marked.size:
            index = np.floor(draws / p_unmarked)
            return np.clip(index, 0, num_states - 1).astype(np.int64)
        rank = np.arange(marked.size)
        unmarked_below = (marked - rank) * p_unmarked
        before = unmarked_below + rank * p_marked
        through = unmarked_below + (rank + 1) * p_marked
        below = np.searchsorted(through, draws, side="right")
        nearest = np.minimum(below, marked.size - 1)
        # Bounds of the unmarked run the draw may land in.
        fences = np.concatenate(([-1], marked, [num_states]))
        low, high = fences[below] + 1, fences[below + 1] - 1
        step = p_unmarked or 1.0  # p_u = 0 never takes the unmarked branch
        index = below + np.floor((draws - below * p_marked) / step)
        index = np.clip(index, low, np.maximum(low, high)).astype(np.int64)
        # The ulp-level fallbacks (p_u = 0, or a draw past the last
        # marked state's cumulative sum with no unmarked run after it)
        # return the nearest marked state.
        on_marked = (
            (below < marked.size) & (before[nearest] <= draws)
        ) | (p_unmarked == 0.0) | (low > high)
        return np.where(on_marked, marked[nearest], index)


class PhaseOracleGrover:
    """Exact Grover simulation given a marked-state oracle.

    Parameters
    ----------
    num_qubits:
        Search register width ``n`` (``2^n`` basis states).
    oracle:
        One of three oracle forms:

        * a predicate ``mask -> bool``, evaluated over all ``2^n``
          masks up front (the slow, always-available form);
        * an iterable of marked basis indices;
        * a NumPy integer array of marked indices, in any order and
          with repeats allowed — the fast path for precomputed marked
          sets (:mod:`repro.perf`): one sort and an adjacent-duplicate
          drop, with no per-element Python conversion.

        All three forms with the same marked set produce bit-identical
        runs.  :attr:`marked` (a frozenset) is built only when read.
    """

    #: Widest register accepted.  A run needs O(1) memory at any width;
    #: the limit is enumerating the marked set that feeds the engine
    #: (``2^n`` predicate calls here, or the bit-parallel sweep capped
    #: at :data:`repro.perf.MAX_VERTICES`).
    MAX_QUBITS = 26

    def __init__(
        self,
        num_qubits: int,
        oracle: Iterable[int] | Callable[[int], bool] | np.ndarray,
    ) -> None:
        if not (1 <= num_qubits <= self.MAX_QUBITS):
            raise ValueError(
                f"num_qubits must be in [1, {self.MAX_QUBITS}], got {num_qubits}"
            )
        self.num_qubits = num_qubits
        dim = 1 << num_qubits
        if isinstance(oracle, np.ndarray):
            if oracle.size and not np.issubdtype(oracle.dtype, np.integer):
                raise ValueError(
                    f"marked array must have an integer dtype, got {oracle.dtype}"
                )
            # np.unique's result without its hashing: sort, then keep
            # each entry that differs from its predecessor.
            marked = np.sort(oracle.astype(np.int64))
            marked = marked[np.diff(marked, prepend=marked[:1] - 1) != 0]
        elif callable(oracle):
            marked = np.array([i for i in range(dim) if oracle(i)], dtype=np.int64)
        else:
            marked = np.array(sorted(set(int(i) for i in oracle)), dtype=np.int64)
        if marked.size and (marked[0] < 0 or marked[-1] >= dim):
            raise ValueError("marked index out of range")
        self._sorted_marked = marked

    @cached_property
    def marked(self) -> frozenset[int]:
        """The marked basis states as a frozenset."""
        return frozenset(self._sorted_marked.tolist())

    @property
    def num_marked(self) -> int:
        return int(self._sorted_marked.size)

    def optimal_iterations(self) -> int:
        """Canonical iteration count for this instance (0 if M = 0)."""
        if not self.num_marked:
            return 0
        return optimal_iterations(1 << self.num_qubits, self.num_marked)

    def run(
        self,
        iterations: int | None = None,
        snapshot_at: Iterable[int] = (),
        depolarize: float = 0.0,
    ) -> GroverRun:
        """Execute Grover for ``iterations`` rounds (optimal if None).

        Each round is the oracle sign flip (``a_m -> -a_m``) followed by
        the inversion about the mean ``mu = ((N-M) a_u - M a_m) / N``
        (``a -> 2 mu - a``), applied to the two amplitudes.

        ``depolarize`` is a per-iteration depolarizing rate: each round
        leaves the register untouched with probability ``1 - p`` and
        scrambles it to the maximally mixed state with probability
        ``p``.  The accumulated weight ``1 - (1-p)^iterations`` lands
        on :attr:`GroverRun.depolarization` and dampens the measurement
        distribution; the amplitude trace itself (the noiseless branch)
        is unchanged, so ``depolarize=0.0`` is byte-identical to the
        noiseless path.
        """
        if iterations is None:
            iterations = self.optimal_iterations()
        if iterations < 0:
            raise ValueError(f"iterations must be >= 0, got {iterations}")
        if not 0.0 <= depolarize < 1.0:
            raise ValueError(f"depolarize must be in [0, 1), got {depolarize}")
        num_states = 1 << self.num_qubits
        num_marked = self._sorted_marked.size
        num_unmarked = num_states - num_marked
        a_marked = a_unmarked = 1.0 / math.sqrt(num_states)
        wanted = {int(i) for i in snapshot_at}
        snapshots = {0: (a_marked, a_unmarked)} if 0 in wanted else {}
        history = [num_marked * a_marked ** 2]
        for i in range(1, iterations + 1):
            mean = (num_unmarked * a_unmarked - num_marked * a_marked) / num_states
            a_marked, a_unmarked = 2.0 * mean + a_marked, 2.0 * mean - a_unmarked
            history.append(num_marked * a_marked ** 2)
            if i in wanted:
                snapshots[i] = (a_marked, a_unmarked)
        return GroverRun(
            self.num_qubits, iterations, a_marked, a_unmarked,
            history=history, snapshots=snapshots,
            depolarization=(
                1.0 - (1.0 - depolarize) ** iterations if depolarize else 0.0
            ),
            sorted_marked=self._sorted_marked,
        )

    def theoretical_success(self, iterations: int) -> float:
        """Closed-form ``sin^2((2i+1) theta)`` for cross-checking."""
        return success_probability(1 << self.num_qubits, self.num_marked, iterations)


def grover_circuit(num_qubits: int, oracle_circuit: QuantumCircuit, iterations: int) -> QuantumCircuit:
    """The literal Fig. 11 layout: H^n then ``iterations`` (oracle, diffusion).

    ``oracle_circuit`` must act as a phase oracle on the first
    ``num_qubits`` qubits (any ancillas must be returned to |0>); it is
    inlined verbatim each round.  Intended for small-n validation and
    gate counting, not production search.
    """
    qc = QuantumCircuit(oracle_circuit.num_qubits)
    qc.mirror_registers(oracle_circuit)
    for q in range(num_qubits):
        qc.h(q)
    diff = diffusion_circuit(num_qubits)
    for _ in range(iterations):
        qc.extend(oracle_circuit)
        qc.extend(diff)
    return qc
