"""Quantum annealer hardware topologies.

Real annealers expose sparse qubit-connectivity graphs; logical
problems must be minor-embedded into them (chains of physical qubits per
logical variable — the subject of the paper's Fig. 15).  We provide the
classic **Chimera** family C_m: an ``m x m`` grid of ``K_{4,4}`` unit
cells with inter-cell couplers, which is structurally faithful to
D-Wave hardware while staying easy to reason about, plus a denser
Pegasus-like variant obtained by augmenting Chimera with extra odd
couplers (higher degree => shorter chains, as on real Advantage chips).

Both builders are memoised per process by ``(m, t)``: a
:class:`HardwareGraph` is frozen, so every sampler and clique-template
fallback on the same chip shares one instance instead of rebuilding it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

__all__ = ["HardwareGraph", "chimera_graph", "pegasus_like_graph"]


@dataclass(frozen=True)
class HardwareGraph:
    """A physical qubit-connectivity graph.

    Attributes
    ----------
    num_qubits:
        Physical qubit count (ids ``0..num_qubits-1``).
    adjacency:
        ``adjacency[q]`` is the tuple of qubits coupled to ``q``.
    name:
        Human-readable topology name.
    grid_size, shore_size:
        Chimera-family parameters (``m`` and ``t``) when the topology
        contains a Chimera grid (used by the clique-embedding
        template); 0 when not applicable.
    """

    num_qubits: int
    adjacency: tuple[tuple[int, ...], ...]
    name: str
    grid_size: int = 0
    shore_size: int = 0

    @property
    def num_couplers(self) -> int:
        return sum(len(a) for a in self.adjacency) // 2

    def are_coupled(self, u: int, v: int) -> bool:
        return v in self.adjacency[u]


def _build(
    num_qubits: int,
    edges: set[tuple[int, int]],
    name: str,
    grid_size: int = 0,
    shore_size: int = 0,
) -> HardwareGraph:
    adj: list[list[int]] = [[] for _ in range(num_qubits)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return HardwareGraph(
        num_qubits, tuple(tuple(sorted(a)) for a in adj), name, grid_size, shore_size
    )


#: Distinct ``(m, t)`` chips kept per topology family.  A C16 holds
#: about 0.5 MB of adjacency, a C55 (the clique template for ~220
#: variables) about 7 MB.
_MEMO_SIZE = 8


@lru_cache(maxsize=_MEMO_SIZE)
def chimera_graph(m: int, t: int = 4) -> HardwareGraph:
    """Chimera C_m with shore size ``t``: ``m*m`` cells of ``K_{t,t}``.

    Qubit id layout: cell ``(row, col)``, side 0 (left shore) or 1,
    index ``0..t-1`` => ``id = ((row * m + col) * 2 + side) * t + index``.

    * intra-cell: every left-shore qubit couples to every right-shore
      qubit of its cell;
    * inter-cell: left shores couple vertically (same column, adjacent
      rows, same index); right shores couple horizontally.
    """
    if m < 1 or t < 1:
        raise ValueError(f"need m >= 1 and t >= 1, got m={m}, t={t}")

    def qid(row: int, col: int, side: int, index: int) -> int:
        return ((row * m + col) * 2 + side) * t + index

    edges: set[tuple[int, int]] = set()
    for row in range(m):
        for col in range(m):
            for i in range(t):
                for jdx in range(t):
                    edges.add((qid(row, col, 0, i), qid(row, col, 1, jdx)))
            if row + 1 < m:
                for i in range(t):
                    edges.add((qid(row, col, 0, i), qid(row + 1, col, 0, i)))
            if col + 1 < m:
                for i in range(t):
                    edges.add((qid(row, col, 1, i), qid(row, col + 1, 1, i)))
    return _build(2 * t * m * m, edges, f"chimera_C{m}(t={t})", m, t)


@lru_cache(maxsize=_MEMO_SIZE)
def pegasus_like_graph(m: int, t: int = 4) -> HardwareGraph:
    """A Pegasus-flavoured topology: Chimera C_m plus odd couplers.

    Adds couplers between consecutive same-shore qubits inside each
    cell and diagonal inter-cell couplers, raising the typical qubit
    degree from 6 toward the ~15 of real Pegasus.  Not the exact
    Pegasus graph, but it reproduces the property the experiments
    depend on: denser hardware => shorter chains for the same problem.
    """
    base = chimera_graph(m, t)

    def qid(row: int, col: int, side: int, index: int) -> int:
        return ((row * m + col) * 2 + side) * t + index

    edges: set[tuple[int, int]] = set()
    for q, neigh in enumerate(base.adjacency):
        for w in neigh:
            edges.add((min(q, w), max(q, w)))
    for row in range(m):
        for col in range(m):
            for side in (0, 1):
                for i in range(t - 1):  # odd couplers within a shore
                    edges.add((qid(row, col, side, i), qid(row, col, side, i + 1)))
            if row + 1 < m and col + 1 < m:  # diagonal cross-cell couplers
                for i in range(t):
                    edges.add((qid(row, col, 1, i), qid(row + 1, col + 1, 0, i)))
    return _build(base.num_qubits, edges, f"pegasus_like_P{m}(t={t})", m, t)
