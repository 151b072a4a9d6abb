"""Bit-parallel k-cplex / k-plex enumeration over all subset masks.

The classical bottleneck of the simulated qTKP/qMKP pipeline is the
oracle sweep: deciding, for every one of the ``2^n`` subset bitmasks,
whether the subset is a k-cplex of the complement graph.  The
pure-Python predicate costs a ``frozenset`` build plus ``n`` set
intersections per mask; this module replaces the whole sweep with
chunked NumPy:

* each vertex contributes one complement-adjacency bitmask, so its
  in-subset degree is ``popcount(mask & comp_adj[v])`` — a single AND
  plus a vectorized popcount over a whole chunk of masks at once;
* the k-cplex condition is the AND over vertices of
  ``not selected(v) or degree(v) <= k - 1``, evaluated with boolean
  array ops (the size-``T`` filter is deliberately *not* applied here —
  it is the only threshold-dependent part of the oracle, and
  :mod:`repro.perf.cache` handles it with a size partition);
* masks are processed in memory-bounded chunks of ``np.arange`` blocks,
  optionally fanned out over a process pool for large ``n``.

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
    "kcplex_masks",
    "kplex_masks",
    "kplex_mask_status",
    "kplex_masks_containing",
]

#: Widest graph the enumerator sweeps.  The Grover engine holds two
#: amplitudes at any width, so enumerating the ``2^n`` masks is what
#: limits qMKP; ``PhaseOracleGrover.MAX_QUBITS`` is the same ceiling.
MAX_VERTICES = 26

#: Default memory budget for one chunk's working arrays (~64 MB).
_DEFAULT_CHUNK_BYTES = 64 * 1024 * 1024

#: Approximate bytes of temporaries per mask in :func:`_enumerate_chunk`
#: (masks + sizes + keep flag + degree + selection scratch).
_BYTES_PER_MASK = 34


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


def _chunk_size(num_masks: int, chunk_masks: int | None) -> int:
    if chunk_masks is not None:
        if chunk_masks < 1:
            raise ValueError(f"chunk_masks must be >= 1, got {chunk_masks}")
        return min(chunk_masks, num_masks)
    return max(1, min(num_masks, _DEFAULT_CHUNK_BYTES // _BYTES_PER_MASK))


def _enumerate_chunk(
    adj_masks: Sequence[int], limit: int, start: int, stop: int
) -> tuple[np.ndarray, np.ndarray]:
    """Masks in ``[start, stop)`` whose selected vertices all have
    ``popcount(mask & adj_masks[v]) <= limit``, with their sizes."""
    masks = np.arange(start, stop, dtype=np.uint64)
    sizes = popcount_u64(masks)
    keep = np.ones(masks.shape, dtype=bool)
    for v, am in enumerate(adj_masks):
        if am == 0 or am.bit_count() <= limit:
            # Vertex degree can never exceed the limit: always passes.
            continue
        degree = popcount_u64(masks & np.uint64(am))
        selected = (masks >> np.uint64(v)) & np.uint64(1)
        keep &= (degree <= limit) | (selected == 0)
    return masks[keep], sizes[keep]


def _chunk_worker(
    args: tuple[tuple[int, ...], int, int, int, str]
) -> tuple[np.ndarray, np.ndarray]:
    adj_masks, limit, start, stop, kernel = args
    # Each pool process resolves the backend by name: the compiled
    # library loads from the shared on-disk cache, so children never
    # re-compile, and a child without the toolchain falls back to the
    # reference (byte-identical output either way).
    from .kernels import resolve

    return resolve(kernel).enumerate_chunk(adj_masks, limit, start, stop)


def _enumerate(
    adj_masks: Sequence[int],
    num_vertices: int,
    k: int,
    chunk_masks: int | None,
    workers: int | None,
    tracer=None,
    kernel: str | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if num_vertices > MAX_VERTICES:
        raise ValueError(
            f"bit-parallel enumeration supports n <= {MAX_VERTICES}, got {num_vertices}"
        )
    from .kernels import resolve

    backend = resolve(kernel)
    tracer = tracer or NULL_TRACER
    num_masks = 1 << num_vertices
    size = _chunk_size(num_masks, chunk_masks)
    spans = [(s, min(s + size, num_masks)) for s in range(0, num_masks, size)]
    limit = k - 1
    if workers is not None and workers > 1 and len(spans) > 1:
        import multiprocessing

        jobs = [(tuple(adj_masks), limit, s, e, backend.name) for s, e in spans]
        with multiprocessing.Pool(min(workers, len(spans))) as pool:
            parts = pool.map(_chunk_worker, jobs)
        # Pool workers are separate processes: charge their chunk scans
        # in aggregate on this side of the fork.
        tracer.add("perf_chunks_scanned", len(spans))
        tracer.add("perf_masks_scanned", num_masks)
    else:
        parts = []
        for s, e in spans:
            parts.append(backend.enumerate_chunk(adj_masks, limit, s, e))
            tracer.add("perf_chunks_scanned", 1)
            tracer.add("perf_masks_scanned", e - s)
    masks = np.concatenate([p[0] for p in parts])
    sizes = np.concatenate([p[1] for p in parts])
    return masks.astype(np.int64), sizes


def kcplex_masks(
    graph: Graph,
    k: int,
    chunk_masks: int | None = None,
    workers: int | None = None,
    tracer=None,
    kernel: str | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """All bitmasks whose subsets are k-cplexes of ``graph``.

    Returns ``(masks, sizes)`` with ``masks`` ascending — exactly the
    order a Python scan ``[m for m in range(2**n) if predicate(m)]``
    produces, so downstream marked sets are interchangeable.

    Parameters
    ----------
    graph, k:
        Every selected vertex may have at most ``k - 1`` selected
        neighbours (Definition 4 of the paper).
    chunk_masks:
        Masks per chunk; default keeps chunk temporaries near 64 MB.
    workers:
        Process-pool width for chunk fan-out (None / 1 = in-process).
    tracer:
        Optional :class:`repro.obs.Tracer`; chunk/mask scan counts are
        charged to the current span (``perf_chunks_scanned``,
        ``perf_masks_scanned``).
    kernel:
        Kernel-backend name (``repro.perf.kernels``); None honours the
        ``REPRO_KERNEL`` environment variable (default ``auto``).  All
        backends return byte-identical masks.
    """
    return _enumerate(
        graph.adjacency_masks(), graph.num_vertices, k, chunk_masks, workers,
        tracer, kernel,
    )


def kplex_mask_status(
    graph: Graph,
    k: int,
    masks: np.ndarray,
) -> np.ndarray:
    """k-plex status of *arbitrary* subset bitmasks, as a boolean array.

    The full-sweep entry points above always scan the contiguous range
    ``[0, 2^n)``; this evaluates the same predicate on any mask array —
    the primitive behind :meth:`repro.perf.MarkedSetCache.patch`, which
    re-checks only the masks an edge edit can actually affect instead
    of re-sweeping the whole space.  Status agrees element-for-element
    with membership in :func:`kplex_masks`' output.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if graph.num_vertices > MAX_VERTICES:
        raise ValueError(
            f"bit-parallel evaluation supports n <= {MAX_VERTICES}, "
            f"got {graph.num_vertices}"
        )
    masks = np.asarray(masks, dtype=np.uint64)
    limit = k - 1
    keep = np.ones(masks.shape, dtype=bool)
    for v, am in enumerate(graph.complement_adjacency_masks()):
        if am == 0 or am.bit_count() <= limit:
            continue
        degree = popcount_u64(masks & np.uint64(am))
        selected = (masks >> np.uint64(v)) & np.uint64(1)
        keep &= (degree <= limit) | (selected == 0)
    return keep


def kplex_masks_containing(
    graph: Graph,
    k: int,
    *vertices: int,
    chunk_masks: int | None = None,
    tracer=None,
    kernel: str | None = None,
) -> np.ndarray:
    """Marked k-plex masks among all masks containing every ``vertices``.

    Equivalent to filtering :func:`kplex_masks` down to masks with all
    the given bits set, but scans only that ``2^(n-r)`` subspace — the
    re-evaluation set of an incremental patch (``r = 2`` for an edge
    insertion, ``r = 1`` for a vertex add).  A vertex permutation
    sending the pinned vertices to the ``r`` highest bit positions
    turns the candidate set into the contiguous range
    ``[(2^r - 1) << (n-r), 2^n)``, which any enumeration kernel sweeps
    natively; the surviving masks are then mapped back (an
    order-preserving bit scatter, so the result stays ascending) —
    byte-identical to the filtered full sweep at ``1/2^r`` of its mask
    count, through the same compiled tiers.
    """
    n = graph.num_vertices
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if n > MAX_VERTICES:
        raise ValueError(
            f"bit-parallel enumeration supports n <= {MAX_VERTICES}, got {n}"
        )
    r = len(vertices)
    if not 1 <= r < n or len(set(vertices)) != r:
        raise ValueError(
            f"need 1..{n - 1} distinct pinned vertices, got {vertices}"
        )
    if any(not 0 <= w < n for w in vertices):
        raise ValueError(f"pinned vertices out of range: {vertices}")
    from .kernels import resolve

    backend = resolve(kernel)
    tracer = tracer or NULL_TRACER
    free = [w for w in range(n) if w not in vertices]
    perm = free + list(vertices)  # new bit position -> original vertex
    inv = [0] * n
    for pos, orig in enumerate(perm):
        inv[orig] = pos
    cam = graph.complement_adjacency_masks()
    remapped = []
    for orig in perm:
        am = int(cam[orig])
        shuffled = 0
        while am:
            low = am & -am
            shuffled |= 1 << inv[low.bit_length() - 1]
            am ^= low
        remapped.append(shuffled)

    start, stop = ((1 << r) - 1) << (n - r), 1 << n
    size = _chunk_size(stop - start, chunk_masks)
    parts = []
    for s in range(start, stop, size):
        e = min(s + size, stop)
        parts.append(backend.enumerate_chunk(remapped, k - 1, s, e)[0])
        tracer.add("perf_chunks_scanned", 1)
        tracer.add("perf_masks_scanned", e - s)
    permuted = np.concatenate(parts).astype(np.uint64)

    # Scatter the free bits back to their original positions.  Both the
    # scan order and the scatter are monotone, so the output stays
    # ascending without a sort.
    pinned = 0
    for w in vertices:
        pinned |= 1 << w
    out = np.full(permuted.shape, pinned, dtype=np.uint64)
    for pos, orig in enumerate(free):
        out |= ((permuted >> np.uint64(pos)) & np.uint64(1)) << np.uint64(orig)
    return out.astype(np.int64)


def kplex_masks(
    graph: Graph,
    k: int,
    chunk_masks: int | None = None,
    workers: int | None = None,
    tracer=None,
    kernel: str | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """All bitmasks whose subsets are k-plexes of ``graph``.

    Uses the complement-adjacency bitmasks directly (a k-plex of ``G``
    is a k-cplex of ``G-bar``), skipping the O(n^2) complement-graph
    construction the oracle path performs.
    """
    return _enumerate(
        graph.complement_adjacency_masks(), graph.num_vertices, k,
        chunk_masks, workers, tracer, kernel,
    )
