"""Cross-threshold marked-set caching for the Grover pipeline.

qMKP's binary search calls qTKP at O(log n) thresholds, and the only
part of the oracle that depends on the threshold ``T`` is the size
filter — k-cplex membership is a property of ``(graph, k)`` alone.  The
seed implementation nevertheless re-scanned all ``2^n`` masks through
the Python predicate at every probe.

This module enumerates the k-plex masks **once** per ``(graph, k)``
(via :func:`repro.perf.bitparallel.kplex_levels`, whose levels are
already the size classes) and answers every threshold probe with a
suffix lookup:

* :class:`MarkedSetTable` — the masks grouped by size with per-size
  offsets, so "all marked masks of size >= T" is an O(1) array slice;
* :class:`MarkedSetCache` — a small LRU over tables keyed on the
  graph's **structural fingerprint** and ``k``, shared across the
  probes of one qMKP run (and across runs, if the caller keeps the
  cache);
* :class:`PredicateMaskCache` — the same size partition for black-box
  subset predicates (``subset_search``), where the predicate itself
  cannot be vectorized but *can* be evaluated once instead of once per
  threshold.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Callable

import numpy as np

from ..graphs import Graph
from ..obs import NULL_TRACER
from .bitparallel import kplex_levels

__all__ = ["MarkedSetTable", "MarkedSetCache", "PredicateMaskCache"]


class MarkedSetTable:
    """Size-partitioned view of a marked-mask set.

    Parameters
    ----------
    num_vertices:
        Width of the mask space (sizes range over ``0..n``).
    masks, sizes:
        Parallel arrays: each mask with its popcount.  Order is
        preserved within a size class (stable sort), so tables built
        from ascending masks stay ascending inside each class.
    """

    def __init__(self, num_vertices: int, masks: np.ndarray, sizes: np.ndarray) -> None:
        if masks.shape != sizes.shape:
            raise ValueError("masks and sizes must be parallel arrays")
        self.num_vertices = num_vertices
        order = np.argsort(sizes, kind="stable")
        self._by_size = np.ascontiguousarray(masks[order])
        counts = np.bincount(sizes, minlength=num_vertices + 1).astype(np.int64)
        # _offsets[s] = index of the first mask with size >= s.
        self._offsets = np.concatenate(([0], np.cumsum(counts)))
        self._counts = counts

    @classmethod
    def from_partitions(
        cls, num_vertices: int, by_size: np.ndarray, offsets: np.ndarray
    ) -> "MarkedSetTable":
        """A table from its partition arrays, taken verbatim.

        ``by_size`` and ``offsets`` are trusted to be size-partitioned
        masks (ascending inside each size) plus the suffix index, as
        :func:`repro.perf.bitparallel.kplex_levels` returns them — no
        re-sort happens, and the result is byte-identical to the table
        the constructor builds from the same masks in ascending order.
        """
        if offsets.shape != (num_vertices + 2,):
            raise ValueError(
                f"offsets must have {num_vertices + 2} entries, "
                f"got shape {offsets.shape}"
            )
        if int(offsets[-1]) != int(by_size.size):
            raise ValueError(
                f"offsets cover {int(offsets[-1])} masks but by_size has "
                f"{by_size.size}"
            )
        table = cls.__new__(cls)
        table.num_vertices = num_vertices
        table._by_size = by_size
        table._offsets = offsets
        table._counts = np.diff(offsets).astype(np.int64)
        return table

    @property
    def num_marked(self) -> int:
        """Total marked masks, irrespective of size."""
        return int(self._by_size.size)

    def size_histogram(self) -> np.ndarray:
        """Marked-mask count per subset size (index = size)."""
        return self._counts.copy()

    def masks_at_least(self, threshold: int) -> np.ndarray:
        """All marked masks of size >= ``threshold`` — a zero-copy slice."""
        t = max(0, threshold)
        if t > self.num_vertices:
            return self._by_size[:0]
        return self._by_size[self._offsets[t]:]

    def max_marked_size(self) -> int:
        """Largest subset size with at least one marked mask (-1 if none)."""
        nonzero = np.nonzero(self._counts)[0]
        return int(nonzero[-1]) if nonzero.size else -1


class MarkedSetCache:
    """LRU cache of :class:`MarkedSetTable` keyed on graph structure.

    One instance is typically created per qMKP run (the default) so the
    O(log n) threshold probes share a single enumeration; a
    longer-lived instance additionally shares tables across runs on the
    same graph.

    Keys are ``(graph.fingerprint(), k)`` — an immutable structural
    digest, not the graph object.  Two consequences, both deliberate:
    a structurally identical graph built twice (or round-tripped
    through IO) hits the same table, and a graph whose internals are
    mutated after insertion recomputes instead of serving a stale
    marked set, because the fingerprint is re-derived from the live
    edge set at every lookup.  The cache also holds no reference to
    the graph, so it never extends graph lifetimes.

    It holds tables only; qTKP prices its oracle per probe
    (:func:`repro.core.oracle.price_oracle`).

    Parameters
    ----------
    max_entries:
        Tables kept before least-recently-used eviction.
    kernel:
        Forwarded to :func:`repro.perf.bitparallel.kplex_levels`.
    tracer:
        Optional :class:`repro.obs.Tracer`; hit/miss accounting and the
        sweep span are recorded through it.  ``qmkp`` re-points this at
        its own tracer for the duration of a traced run, so a shared
        cache's activity lands in the right ledger.
    """

    def __init__(
        self,
        max_entries: int = 8,
        kernel: str | None = None,
        tracer=None,
    ) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = max_entries
        self.kernel = kernel
        self.tracer = tracer or NULL_TRACER
        self.hits = 0
        self.misses = 0
        self._tables: OrderedDict[tuple[str, int], MarkedSetTable] = OrderedDict()

    def __len__(self) -> int:
        return len(self._tables)

    def table(self, graph: Graph, k: int) -> MarkedSetTable:
        """The k-plex mask table for ``(graph, k)``, enumerating it on miss."""
        key = (graph.fingerprint(), k)
        table = self._tables.get(key)
        if table is not None:
            self.hits += 1
            self.tracer.add("marked_cache_hits", 1)
            self._tables.move_to_end(key)
            return table
        self.misses += 1
        self.tracer.add("marked_cache_misses", 1)
        with self.tracer.span("perf.sweep", n=graph.num_vertices, k=k) as span:
            by_size, offsets = kplex_levels(
                graph, k, tracer=self.tracer, kernel=self.kernel
            )
            span.set("num_marked", int(by_size.size))
        table = MarkedSetTable.from_partitions(graph.num_vertices, by_size, offsets)
        self._tables[key] = table
        while len(self._tables) > self.max_entries:
            self._tables.popitem(last=False)
        return table

    def marked(self, graph: Graph, k: int, threshold: int) -> np.ndarray:
        """Marked masks for one qTKP probe: k-plexes of size >= ``threshold``."""
        return self.table(graph, k).masks_at_least(threshold)

    def stats(self) -> dict[str, int]:
        """Hit/miss/entry counters, for logging and tests."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "entries": len(self._tables),
        }


class PredicateMaskCache:
    """Size-partitioned mask table for a black-box subset predicate.

    The generic :mod:`repro.core.subset_search` engine cannot vectorize
    an arbitrary predicate, but it can still stop paying the ``2^n``
    evaluation at *every* binary-search threshold: evaluate once here,
    then serve each probe from the size partition.
    """

    def __init__(self, graph: Graph, predicate: Callable[[frozenset[int]], bool]) -> None:
        n = graph.num_vertices
        marked = [
            mask
            for mask in range(1 << n)
            if predicate(graph.bitmask_to_subset(mask))
        ]
        masks = np.asarray(marked, dtype=np.int64)
        sizes = np.asarray([m.bit_count() for m in marked], dtype=np.int64)
        self._table = MarkedSetTable(n, masks, sizes)

    @property
    def table(self) -> MarkedSetTable:
        return self._table

    def marked(self, threshold: int) -> np.ndarray:
        """Masks whose subsets satisfy the predicate with size >= ``threshold``."""
        return self._table.masks_at_least(threshold)
