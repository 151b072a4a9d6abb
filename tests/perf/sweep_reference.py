"""The ``2^n`` mask sweep, kept as the enumeration's test reference.

Before the level sweep, :mod:`repro.perf.bitparallel` tested every one
of the ``2^n`` subset masks, one ``np.arange`` block at a time.  It is
the definition of the marked set in its plainest form, so the suites
hold both kernel tiers of :func:`repro.perf.kplex_levels` to it byte
for byte.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.graphs import Graph
from repro.perf import MarkedSetTable, popcount_u64


def sweep_masks(
    adj_masks: Sequence[int], limit: int
) -> tuple[np.ndarray, np.ndarray]:
    """Ascending masks over ``len(adj_masks)`` bits whose selected
    vertices all have ``popcount(mask & adj_masks[v]) <= limit``, with
    their sizes (both ``int64``)."""
    masks = np.arange(1 << len(adj_masks), dtype=np.uint64)
    sizes = popcount_u64(masks)
    keep = np.ones(masks.shape, dtype=bool)
    for v, am in enumerate(adj_masks):
        if am.bit_count() <= limit:
            continue  # the vertex's degree can never exceed the limit
        degree = popcount_u64(masks & np.uint64(am))
        selected = (masks >> np.uint64(v)) & np.uint64(1)
        keep &= (degree <= limit) | (selected == 0)
    return masks[keep].astype(np.int64), sizes[keep]


def sweep_kplex_masks(graph: Graph, k: int) -> tuple[np.ndarray, np.ndarray]:
    """What :func:`repro.perf.kplex_masks` returns, by the ``2^n`` sweep."""
    return sweep_masks(graph.complement_adjacency_masks(), k - 1)


def sweep_table(graph: Graph, k: int) -> MarkedSetTable:
    """The marked-set table the sweep's ascending output sorts into."""
    masks, sizes = sweep_kplex_masks(graph, k)
    return MarkedSetTable(graph.num_vertices, masks, sizes)
