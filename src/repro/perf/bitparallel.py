"""Bit-parallel k-plex enumeration, level by level.

The classical half of the simulated qTKP/qMKP pipeline is the marked
set: every subset bitmask that is a k-cplex of the complement graph.
k-plexes are hereditary (every subset of one is one), so the members of
size ``s + 1`` are exactly the members of size ``s`` extended by one
vertex above their top bit.  The enumeration grows them level by level
from the empty set, testing ``O(M * n)`` candidates for ``M`` members
instead of all ``2^n`` masks:

* each vertex contributes one complement-adjacency bitmask, so its
  in-subset degree is ``popcount(mask & comp_adj[v])`` — a single AND
  plus a vectorized popcount over a whole level's candidates at once;
* the k-cplex condition is the AND over vertices of
  ``not selected(v) or degree(v) <= k - 1`` (the size-``T`` filter is
  deliberately *not* applied here — it is the only threshold-dependent
  part of the oracle, and :mod:`repro.perf.cache` answers it with a
  suffix of the size partition);
* candidates are generated vertex by vertex, so each level comes out
  ascending: the levels are the size classes of
  :class:`~repro.perf.cache.MarkedSetTable`, already in table order.

Popcount uses ``np.bitwise_count`` when the installed NumPy has it
(>= 2.0) and a SWAR bit-trick fallback otherwise, so the module runs on
the declared ``numpy>=1.24`` floor.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..graphs import Graph
from ..obs import NULL_TRACER

__all__ = [
    "MAX_VERTICES",
    "popcount_u64",
    "kplex_levels",
    "kplex_masks",
]

#: Widest graph qMKP accepts; ``PhaseOracleGrover.MAX_QUBITS`` is the
#: same ceiling.  The enumeration itself scales with the marked count,
#: not ``2^n``; lifting this needs a measurement contract above ``2^53``
#: states and a marked-count admission budget.
MAX_VERTICES = 26


def popcount_u64(masks: np.ndarray) -> np.ndarray:
    """Per-element popcount of a ``uint64`` array.

    Uses the native ufunc when available, else the classic SWAR
    (SIMD-within-a-register) reduction: fold pairs of bits, nibbles,
    bytes, then gather the byte sums with one multiply.
    """
    masks = np.asarray(masks, dtype=np.uint64)
    if hasattr(np, "bitwise_count"):
        return np.bitwise_count(masks).astype(np.int64)
    x = masks.copy()
    x -= (x >> np.uint64(1)) & np.uint64(0x5555555555555555)
    x = (x & np.uint64(0x3333333333333333)) + (
        (x >> np.uint64(2)) & np.uint64(0x3333333333333333)
    )
    x = (x + (x >> np.uint64(4))) & np.uint64(0x0F0F0F0F0F0F0F0F)
    return ((x * np.uint64(0x0101010101010101)) >> np.uint64(56)).astype(np.int64)


def _enumerate_levels(
    adj_masks: Sequence[int], limit: int
) -> tuple[np.ndarray, np.ndarray, int]:
    """Masks whose selected vertices all have
    ``popcount(mask & adj_masks[v]) <= limit``, level by level.

    Returns ``(by_size, counts, candidates)``: the members as ``int64``,
    size class after size class and ascending inside each; the size of
    each class ``0..n``; and the number of candidate masks tested.
    """
    n = len(adj_masks)
    bits = np.left_shift(np.uint64(1), np.arange(n, dtype=np.uint64))
    checks = [
        (np.uint64(1 << v), np.uint64(am))
        for v, am in enumerate(adj_masks)
        if am.bit_count() > limit  # lower degrees always pass
    ]
    level = np.zeros(1, dtype=np.uint64)
    levels = [level]
    candidates = 0
    while True:
        # Members below bit v extend by v; vertex-major keeps the
        # children ascending.
        cuts = np.searchsorted(level, bits).tolist()
        parts = [level[:c] | bit for c, bit in zip(cuts, bits) if c]
        if not parts:
            break
        children = np.concatenate(parts)
        candidates += children.size
        keep = np.ones(children.size, dtype=bool)
        for bit, am in checks:
            keep &= ((children & bit) == 0) | (
                popcount_u64(children & am) <= limit
            )
        level = children[keep]
        if not level.size:
            break
        levels.append(level)
    counts = np.zeros(n + 1, dtype=np.int64)
    counts[: len(levels)] = [lv.size for lv in levels]
    return np.concatenate(levels).view(np.int64), counts, candidates


def kplex_levels(
    graph: Graph,
    k: int,
    tracer=None,
    kernel: str | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """All k-plex bitmasks of ``graph``, partitioned by size.

    Returns ``(by_size, offsets)``: the ``int64`` masks, size class by
    size class and ascending inside each, and ``offsets[s]``, the index
    of the first mask of size ``>= s`` (``n + 2`` entries) — exactly a
    :class:`~repro.perf.cache.MarkedSetTable`'s partition arrays.

    Parameters
    ----------
    graph, k:
        Every selected vertex may have at most ``k - 1`` selected
        non-neighbours (Definition 4 of the paper, on the complement).
    tracer:
        Optional :class:`repro.obs.Tracer`; the candidates the sweep
        tests are charged to the current span as ``perf_masks_scanned``.
    kernel:
        Kernel-backend name (``repro.perf.kernels``); None honours the
        ``REPRO_KERNEL`` environment variable (default ``auto``).  All
        backends return byte-identical arrays.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if graph.num_vertices > MAX_VERTICES:
        raise ValueError(
            f"bit-parallel enumeration supports n <= {MAX_VERTICES}, "
            f"got {graph.num_vertices}"
        )
    from .kernels import resolve

    by_size, counts, candidates = resolve(kernel).enumerate_levels(
        graph.complement_adjacency_masks(), k - 1
    )
    (tracer or NULL_TRACER).add("perf_masks_scanned", candidates)
    return by_size, np.concatenate(([0], np.cumsum(counts)))


def kplex_masks(
    graph: Graph,
    k: int,
    tracer=None,
    kernel: str | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """All k-plex bitmasks of ``graph`` in ascending order, with sizes.

    The order a Python scan ``[m for m in range(2**n) if predicate(m)]``
    produces, so downstream marked sets are interchangeable; one sort of
    :func:`kplex_levels`' output.
    """
    by_size, _ = kplex_levels(graph, k, tracer=tracer, kernel=kernel)
    masks = np.sort(by_size)
    return masks, popcount_u64(masks)
