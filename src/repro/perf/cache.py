"""Cross-threshold marked-set caching for the Grover pipeline.

qMKP's binary search calls qTKP at O(log n) thresholds, and the only
part of the oracle that depends on the threshold ``T`` is the size
filter — k-cplex membership is a property of ``(graph, k)`` alone.  The
seed implementation nevertheless re-scanned all ``2^n`` masks through
the Python predicate at every probe.

This module computes the k-plex mask set **once** per ``(graph, k)``
(via :mod:`repro.perf.bitparallel`), partitions it by subset size, and
answers every threshold probe with a suffix lookup:

* :class:`MarkedSetTable` — the masks sorted by size with per-size
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
from .bitparallel import (
    kplex_mask_status,
    kplex_masks,
    kplex_masks_containing,
    popcount_u64,
)

__all__ = ["MarkedSetTable", "MarkedSetCache", "PredicateMaskCache"]


def _masks_containing(num_vertices: int, u: int, v: int) -> np.ndarray:
    """All ``2^(n-2)`` subset bitmasks containing both ``u`` and ``v``,
    ascending.

    Scattering the free bits into increasing positions preserves order,
    so the result is ascending without a sort — the candidate set for
    an edge edit's re-evaluation (only subsets holding both endpoints
    can change k-plex status when the edge ``{u, v}`` flips).
    """
    rest = [b for b in range(num_vertices) if b not in (u, v)]
    base = np.arange(1 << len(rest), dtype=np.uint64)
    out = np.full(base.shape, (1 << u) | (1 << v), dtype=np.uint64)
    for i, b in enumerate(rest):
        out |= ((base >> np.uint64(i)) & np.uint64(1)) << np.uint64(b)
    return out


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
        """Rebuild a table from its serialized partition arrays verbatim.

        ``by_size`` and ``offsets`` are trusted to be a table's own
        ``_by_size`` / ``_offsets`` (size-partitioned masks plus the
        suffix index) — no re-sort happens, so a zero-copy view (e.g.
        an ``np.memmap`` over a shared segment) is served as-is and the
        result is byte-identical to the table that was serialized.
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

    def ascending(self) -> tuple[np.ndarray, np.ndarray]:
        """``(masks, sizes)`` in ascending mask order.

        This is the sweep's native order (and the constructor's input
        order), recovered from the size partition; masks are unique, so
        a plain sort restores it exactly.
        """
        masks = np.sort(self._by_size).astype(np.int64)
        return masks, popcount_u64(masks)

    def retain(self, keep: np.ndarray) -> "MarkedSetTable":
        """New table holding only the ascending-order masks flagged in
        ``keep`` (a boolean array parallel to :meth:`ascending`)."""
        return self.patch(keep, np.empty(0, dtype=np.int64))

    def patch(
        self,
        keep: np.ndarray,
        add_masks: np.ndarray,
        num_vertices: int | None = None,
    ) -> "MarkedSetTable":
        """New table: ``keep``-filtered old masks merged with ``add_masks``.

        ``keep`` is boolean, parallel to :meth:`ascending`; ``add_masks``
        must be disjoint from the retained masks.  The result is
        byte-identical (``_by_size`` and ``_offsets`` alike) to a table
        built fresh from the union's ascending sweep — the invariant the
        incremental solver's bit-identity guarantee rests on.
        """
        keep = np.asarray(keep, dtype=bool)
        old_masks, _ = self.ascending()
        if keep.shape != old_masks.shape:
            raise ValueError(
                f"keep must be parallel to the {old_masks.size} marked "
                f"masks, got shape {keep.shape}"
            )
        merged = np.sort(np.concatenate([
            old_masks[keep],
            np.asarray(add_masks, dtype=np.int64),
        ])).astype(np.int64)
        n = self.num_vertices if num_vertices is None else num_vertices
        return MarkedSetTable(n, merged, popcount_u64(merged))


class MarkedSetCache:
    """LRU cache of :class:`MarkedSetTable` keyed on graph structure.

    One instance is typically created per qMKP run (the default) so the
    O(log n) threshold probes share a single bit-parallel sweep; a
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

    Parameters
    ----------
    max_entries:
        Tables kept before least-recently-used eviction.
    chunk_masks, workers, kernel:
        Forwarded to :func:`repro.perf.bitparallel.kplex_masks`.
    tracer:
        Optional :class:`repro.obs.Tracer`; hit/miss accounting and the
        sweep span are recorded through it.  ``qmkp`` re-points this at
        its own tracer for the duration of a traced run, so a shared
        cache's activity lands in the right ledger.
    shared:
        Optional :class:`repro.perf.shared.SharedTableStore` backing
        tier, consulted between the in-process LRU and a cold sweep:
        a local miss first tries a zero-copy attach to a segment some
        other process published; a cold build (and every patch)
        publishes back so the rest of the fleet attaches instead of
        enumerating.  Shared activity is tracked by the
        ``shared_hits`` / ``shared_misses`` / ``shared_publishes``
        counters and charged to the tracer as ``cache_shared_*``.
    """

    def __init__(
        self,
        max_entries: int = 8,
        chunk_masks: int | None = None,
        workers: int | None = None,
        kernel: str | None = None,
        tracer=None,
        shared=None,
    ) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = max_entries
        self.chunk_masks = chunk_masks
        self.workers = workers
        self.kernel = kernel
        self.tracer = tracer or NULL_TRACER
        self.shared = shared
        self.hits = 0
        self.misses = 0
        self.patches = 0
        self.reused_partitions = 0
        self.shared_hits = 0
        self.shared_misses = 0
        self.shared_publishes = 0
        self._tables: OrderedDict[tuple[str, int], MarkedSetTable] = OrderedDict()
        self._oracle_costs: dict[tuple[str, int], object] = {}

    def __len__(self) -> int:
        return len(self._tables)

    def _insert(self, key: tuple[str, int], table: MarkedSetTable) -> None:
        self._tables[key] = table
        while len(self._tables) > self.max_entries:
            evicted, _ = self._tables.popitem(last=False)
            self._oracle_costs.pop(evicted, None)

    def _shared_attach(self, key: tuple[str, int], num_vertices: int):
        """Try the shared tier on a local miss; charges shared counters."""
        attached = self.shared.attach(key[0], key[1], num_vertices=num_vertices)
        if attached is not None:
            self.shared_hits += 1
            self.tracer.add("cache_shared_hits", 1)
            self._insert(key, attached)
        else:
            self.shared_misses += 1
            self.tracer.add("cache_shared_misses", 1)
        return attached

    def _shared_publish(self, key: tuple[str, int], table: MarkedSetTable) -> None:
        """Feed a freshly built (or patched) table back to the fleet."""
        if self.shared.publish(key[0], key[1], table, kernel=self.kernel):
            self.shared_publishes += 1
            self.tracer.add("cache_shared_publishes", 1)

    def table(self, graph: Graph, k: int) -> MarkedSetTable:
        """The k-plex mask table for ``(graph, k)``, computing it on miss.

        Lookup order: in-process LRU, then (when configured) a
        zero-copy attach to the shared store, then a cold bit-parallel
        sweep whose result is published back to the store.
        """
        key = (graph.fingerprint(), k)
        table = self._tables.get(key)
        if table is not None:
            self.hits += 1
            self.tracer.add("marked_cache_hits", 1)
            self._tables.move_to_end(key)
            return table
        self.misses += 1
        self.tracer.add("marked_cache_misses", 1)
        if self.shared is not None:
            attached = self._shared_attach(key, graph.num_vertices)
            if attached is not None:
                return attached
        with self.tracer.span("perf.sweep", n=graph.num_vertices, k=k) as span:
            masks, sizes = kplex_masks(
                graph, k, chunk_masks=self.chunk_masks, workers=self.workers,
                tracer=self.tracer, kernel=self.kernel,
            )
            span.set("num_marked", int(masks.size))
        table = MarkedSetTable(graph.num_vertices, masks, sizes)
        self._insert(key, table)
        if self.shared is not None:
            self._shared_publish(key, table)
        return table

    def marked(self, graph: Graph, k: int, threshold: int) -> np.ndarray:
        """Marked masks for one qTKP probe: k-plexes of size >= ``threshold``."""
        return self.table(graph, k).masks_at_least(threshold)

    def oracle_costs(self, graph: Graph, k: int, build: Callable[[], object]) -> object:
        """The qTKP oracle's threshold-independent gate counts for ``(graph, k)``.

        Only the oracle's size comparator depends on the threshold, so
        the rest of its gate count is, like the table, a property of
        ``(graph, k)``.  ``build()`` computes it on the first probe; the
        result is kept under the table's key and evicted with the table,
        so a run-local cache shares it across one run's probes and a
        caller-kept cache across runs.  Charges no hit or miss.
        """
        key = (graph.fingerprint(), k)
        costs = self._oracle_costs.get(key)
        if costs is None:
            costs = build()
            if key in self._tables:
                self._oracle_costs[key] = costs
        return costs

    def patch(
        self,
        old_graph: Graph,
        new_graph: Graph,
        k: int,
        op: str,
        u: int | None = None,
        v: int | None = None,
    ) -> MarkedSetTable | None:
        """Derive ``new_graph``'s table from ``old_graph``'s by a single edit.

        ``op`` names the mutation that turned ``old_graph`` into
        ``new_graph``: ``"add_edge"`` / ``"remove_edge"`` (endpoints
        ``u``, ``v``) or ``"add_vertex"`` (one isolated vertex appended).
        Only the masks the edit can affect are re-evaluated:

        * an edge edit touches exactly the ``2^(n-2)`` masks containing
          *both* endpoints — inserting an edge only relaxes the k-plex
          condition there (the marked set grows), deleting only tightens
          it (re-check the previously marked touched masks, nothing new
          can appear);
        * a vertex add leaves every old mask's status unchanged and
          evaluates the ``2^n`` masks containing the new vertex.

        The patched table is byte-identical to a fresh sweep of
        ``new_graph``.  Returns None (and charges nothing) when the old
        table is not cached — the next :meth:`table` call sweeps fresh.
        Masks carried over without re-evaluation are charged to the
        tracer as ``reused_partitions``.
        """
        if op not in ("add_edge", "remove_edge", "add_vertex"):
            raise ValueError(f"unknown patch op {op!r}")
        new_key = (new_graph.fingerprint(), k)
        existing = self._tables.get(new_key)
        if existing is not None:
            self._tables.move_to_end(new_key)
            return existing
        old_key = (old_graph.fingerprint(), k)
        old = self._tables.get(old_key)
        if old is None and self.shared is not None:
            # A sibling worker may have published the pre-edit table
            # (e.g. the same streaming session resumed on another
            # worker); attaching lets the patch proceed incrementally.
            old = self._shared_attach(old_key, old_graph.num_vertices)
        if old is None:
            return None
        n = new_graph.num_vertices
        old_masks, _ = old.ascending()
        pinned: tuple[int, ...] | None = None
        candidates = None
        if op == "add_vertex":
            if n != old.num_vertices + 1:
                raise ValueError(
                    f"add_vertex patch expects n to grow by 1, got "
                    f"{old.num_vertices} -> {n}"
                )
            # Masks without the new vertex keep their status verbatim;
            # masks with it sweep through the kernel-tiered subspace
            # enumerator (the contiguous top-bit half-space).
            keep = np.ones(old_masks.shape, dtype=bool)
            pinned = (n - 1,)
        else:
            if u is None or v is None or u == v:
                raise ValueError(f"{op} patch needs two distinct endpoints")
            both = np.uint64((1 << u) | (1 << v))
            touched = (old_masks.astype(np.uint64) & both) == both
            if op == "add_edge":
                # Touched masks can only gain membership: drop them from
                # the carry-over and re-sweep the ``2^(n-2)`` candidate
                # subspace through the kernel tiers.
                keep = ~touched
                pinned = (u, v)
            else:
                # Deletion can only lose membership: re-check just the
                # previously marked touched masks.
                keep = ~touched
                candidates = old_masks[touched].astype(np.uint64)
        num_candidates = (
            1 << (n - len(pinned)) if pinned is not None else int(candidates.size)
        )
        with self.tracer.span(
            "perf.patch", op=op, n=n, k=k, candidates=num_candidates
        ) as span:
            if pinned is not None:
                additions = kplex_masks_containing(
                    new_graph, k, *pinned, kernel=self.kernel
                )
            else:
                status = kplex_mask_status(new_graph, k, candidates)
                additions = candidates[status].astype(np.int64)
            table = old.patch(keep, additions, num_vertices=n)
            reused = int(keep.sum())
            span.set("num_marked", table.num_marked)
            span.set("reused", reused)
        self.patches += 1
        self.reused_partitions += reused
        self.tracer.add("marked_cache_patches", 1)
        self.tracer.add("reused_partitions", reused)
        self._insert(new_key, table)
        if self.shared is not None:
            # Republish so streaming sessions feed the fleet: a sibling
            # worker asked to solve the post-edit graph attaches instead
            # of sweeping.
            self._shared_publish(new_key, table)
        return table

    def patch_batch(
        self,
        old_graph: Graph,
        new_graph: Graph,
        k: int,
        edges: "list[tuple[int, int]]",
    ) -> MarkedSetTable | None:
        """Derive ``new_graph``'s table across a *batch* of edge insertions.

        ``edges`` lists the endpoint pairs inserted (in any order) to
        turn ``old_graph`` into ``new_graph``.  Instead of patching once
        per edit through every intermediate graph, the union of the
        pinned ``2^(n-2)`` subspaces is re-swept once against the final
        graph: masks containing no inserted pair keep their status
        verbatim (insertions only relax the k-plex condition elsewhere),
        and each pair's subspace is enumerated via
        :func:`kplex_masks_containing` on ``new_graph`` — deduplicated,
        because the subspaces overlap wherever a mask contains two
        inserted pairs.  The result is byte-identical to sequential
        :meth:`patch` calls (and to a fresh sweep); the whole batch
        charges **one** patch, with ``reused_partitions`` counting the
        masks outside the union subspace.

        Returns None when the old table is neither cached nor
        attachable — the next :meth:`table` call sweeps fresh.
        """
        pairs = []
        for u, v in edges:
            if u == v:
                raise ValueError(f"edge ({u}, {v}) has identical endpoints")
            pairs.append((min(u, v), max(u, v)))
        pairs = sorted(set(pairs))
        if not pairs:
            raise ValueError("patch_batch needs at least one inserted edge")
        new_key = (new_graph.fingerprint(), k)
        existing = self._tables.get(new_key)
        if existing is not None:
            self._tables.move_to_end(new_key)
            return existing
        old_key = (old_graph.fingerprint(), k)
        old = self._tables.get(old_key)
        if old is None and self.shared is not None:
            old = self._shared_attach(old_key, old_graph.num_vertices)
        if old is None:
            return None
        n = new_graph.num_vertices
        if n != old.num_vertices:
            raise ValueError(
                f"patch_batch is edge-only, but n changed "
                f"{old.num_vertices} -> {n}"
            )
        old_masks, _ = old.ascending()
        om = old_masks.astype(np.uint64)
        touched = np.zeros(om.shape, dtype=bool)
        for u, v in pairs:
            both = np.uint64((1 << u) | (1 << v))
            touched |= (om & both) == both
        keep = ~touched
        num_candidates = len(pairs) * (1 << max(n - 2, 0))
        with self.tracer.span(
            "perf.patch", op="add_edge_batch", n=n, k=k,
            edits=len(pairs), candidates=num_candidates,
        ) as span:
            parts = [
                kplex_masks_containing(new_graph, k, u, v, kernel=self.kernel)
                for u, v in pairs
            ]
            additions = np.unique(np.concatenate(parts)).astype(np.int64)
            table = old.patch(keep, additions, num_vertices=n)
            reused = int(keep.sum())
            span.set("num_marked", table.num_marked)
            span.set("reused", reused)
        self.patches += 1
        self.reused_partitions += reused
        self.tracer.add("marked_cache_patches", 1)
        self.tracer.add("reused_partitions", reused)
        self._insert(new_key, table)
        if self.shared is not None:
            self._shared_publish(new_key, table)
        return table

    def stats(self) -> dict[str, int]:
        """Hit/miss/patch/entry counters, for logging and tests.

        The ``shared_*`` keys appear only when a shared store is
        configured, so the no-shared stats dict is unchanged.
        """
        out = {
            "hits": self.hits,
            "misses": self.misses,
            "patches": self.patches,
            "reused_partitions": self.reused_partitions,
            "entries": len(self._tables),
        }
        if self.shared is not None:
            out["shared_hits"] = self.shared_hits
            out["shared_misses"] = self.shared_misses
            out["shared_publishes"] = self.shared_publishes
        return out


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
