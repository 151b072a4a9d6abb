"""Minor embedding of logical problems into hardware topologies.

Each logical variable is represented by a *chain* — a connected set of
physical qubits forced to agree by strong ferromagnetic couplings.  An
embedding is valid when chains are vertex-disjoint and connected, and
every logical interaction has at least one physical coupler between the
two chains.

Finding minimum embeddings is NP-hard; like the paper we use a greedy
heuristic in the spirit of Cai, Macready & Roy (2014): place variables
in descending interaction-degree order.  A variable with no placed
neighbour starts next to the used region; otherwise its chain starts as
one free qubit adjacent to its smallest placed-neighbour chain and
annexes the shortest free path to each remaining placed neighbour.
When greedy fails, a congestion-based router and then the Chimera
clique template take over (:func:`find_embedding`).

(Terminology note: the paper calls the average number of physical
qubits per variable the "chain strength"; the standard term is *chain
length*, with chain strength reserved for the coupling magnitude.  We
report both under their standard names.)
"""

from __future__ import annotations

import random
from collections import deque
from collections.abc import Hashable, Sequence
from dataclasses import dataclass

from .topology import HardwareGraph

__all__ = [
    "EmbeddingError",
    "Embedding",
    "find_embedding",
    "clique_embedding",
    "clique_embedding_auto",
    "suggest_chain_strength",
]

Variable = Hashable


class EmbeddingError(RuntimeError):
    """Raised when the heuristic cannot place the problem on the hardware."""


@dataclass(frozen=True)
class Embedding:
    """A chain per logical variable on a given hardware graph."""

    chains: dict[Variable, tuple[int, ...]]
    hardware: HardwareGraph

    @property
    def num_physical_qubits(self) -> int:
        return sum(len(c) for c in self.chains.values())

    @property
    def average_chain_length(self) -> float:
        if not self.chains:
            return 0.0
        return self.num_physical_qubits / len(self.chains)

    @property
    def max_chain_length(self) -> int:
        return max((len(c) for c in self.chains.values()), default=0)

    def validate(self, logical_edges: Sequence[tuple[Variable, Variable]]) -> None:
        """Raise ``EmbeddingError`` on any violated embedding property."""
        seen: set[int] = set()
        for var, chain in self.chains.items():
            if not chain:
                raise EmbeddingError(f"variable {var!r} has an empty chain")
            overlap = seen.intersection(chain)
            if overlap:
                raise EmbeddingError(f"chains overlap on qubits {sorted(overlap)}")
            seen.update(chain)
            if not self._chain_connected(chain):
                raise EmbeddingError(f"chain of {var!r} is disconnected: {chain}")
        for u, v in logical_edges:
            if not self._chains_coupled(self.chains[u], self.chains[v]):
                raise EmbeddingError(f"no coupler realises logical edge ({u!r}, {v!r})")

    def _chain_connected(self, chain: tuple[int, ...]) -> bool:
        members = set(chain)
        queue = deque([chain[0]])
        reached = {chain[0]}
        while queue:
            q = queue.popleft()
            for w in self.hardware.adjacency[q]:
                if w in members and w not in reached:
                    reached.add(w)
                    queue.append(w)
        return reached == members

    def _chains_coupled(self, chain_a: tuple[int, ...], chain_b: tuple[int, ...]) -> bool:
        b = set(chain_b)
        return any(w in b for q in chain_a for w in self.hardware.adjacency[q])


def find_embedding(
    variables: Sequence[Variable],
    logical_edges: Sequence[tuple[Variable, Variable]],
    hardware: HardwareGraph,
    seed: int | None = None,
    max_tries: int = 5,
) -> Embedding:
    """Embed a logical problem: greedy chain growth, clique fallback.

    Greedy chain growth handles sparse interaction graphs with short
    chains; when it fails (dense, near-clique problems — the MKP QUBO
    penalty groups are cliques) we fall back to the deterministic
    Chimera clique template, exactly as D-Wave tooling does for dense
    inputs.  Raises :class:`EmbeddingError` when both fail.
    """
    rng = random.Random(seed)
    last_error: EmbeddingError | None = None
    for attempt in range(max_tries):
        try:
            chains = _try_embed(list(variables), list(logical_edges), hardware, rng)
        except EmbeddingError as exc:
            last_error = exc
            continue
        emb = Embedding({v: tuple(sorted(c)) for v, c in chains.items()}, hardware)
        emb.validate(logical_edges)
        return emb
    # Congestion-based router (the minorminer-style heuristic).  Dense
    # near-clique problems rarely beat the clique template and make the
    # router grind, so it only runs when the logical graph is sparse
    # enough (or small enough) to profit.
    from .embedding_cm import find_embedding_cm

    sparse_enough = (
        len(variables) <= 60
        or len(logical_edges) <= 6 * max(1, len(variables))
    )
    if sparse_enough:
        try:
            return find_embedding_cm(
                variables, logical_edges, hardware, seed=seed, max_tries=2
            )
        except EmbeddingError as exc:
            last_error = exc
    # Last resort: the deterministic clique template.
    try:
        emb = clique_embedding(variables, hardware)
    except EmbeddingError as exc:
        raise EmbeddingError(
            f"greedy failed after {max_tries} tries; congestion router "
            f"failed ({last_error}); clique template failed too: {exc}"
        ) from exc
    emb.validate(logical_edges)
    return emb


def clique_embedding(
    variables: Sequence[Variable], hardware: HardwareGraph
) -> Embedding:
    """The standard Chimera clique template (works for ANY logical graph).

    Variable ``i`` (block ``b = i // t``, offset ``o = i % t``) gets an
    L-shaped chain meeting at diagonal cell ``(b, b)``: the left-shore
    qubits of column ``b`` in rows ``0..b`` plus the right-shore qubits
    of row ``b`` in columns ``b..m'-1``, where ``m'`` is the smallest
    subgrid holding all variables.  Any two chains meet inside one cell,
    so every logical edge is realisable; chain length is ``m' + 1``.
    """
    m_hw, t = hardware.grid_size, hardware.shore_size
    if not m_hw or not t:
        raise EmbeddingError(
            f"hardware {hardware.name!r} has no Chimera grid parameters"
        )
    n_vars = len(variables)
    m_needed = -(-n_vars // t)  # ceil division: blocks of t variables
    if m_needed > m_hw:
        raise EmbeddingError(
            f"{n_vars} variables need a C{m_needed} subgrid; hardware is C{m_hw}"
        )

    def qid(row: int, col: int, side: int, index: int) -> int:
        return ((row * m_hw + col) * 2 + side) * t + index

    chains: dict[Variable, tuple[int, ...]] = {}
    for i, var in enumerate(variables):
        block, offset = divmod(i, t)
        vertical = [qid(r, block, 0, offset) for r in range(block + 1)]
        horizontal = [qid(block, c, 1, offset) for c in range(block, m_needed)]
        chains[var] = tuple(sorted(set(vertical + horizontal)))
    return Embedding(chains, hardware)


def _try_embed(
    variables: list[Variable],
    logical_edges: list[tuple[Variable, Variable]],
    hardware: HardwareGraph,
    rng: random.Random,
) -> dict[Variable, set[int]]:
    neighbours: dict[Variable, set[Variable]] = {v: set() for v in variables}
    for u, v in logical_edges:
        neighbours[u].add(v)
        neighbours[v].add(u)
    order = sorted(variables, key=lambda v: (-len(neighbours[v]), str(v)))
    # Small random perturbation so restarts explore different layouts.
    if rng.random() < 0.5 and len(order) > 2:
        i, jdx = rng.randrange(len(order)), rng.randrange(len(order))
        order[i], order[jdx] = order[jdx], order[i]

    chains: dict[Variable, set[int]] = {}
    used: set[int] = set()
    for var in order:
        placed = [w for w in sorted(neighbours[var], key=str) if w in chains]
        placed.sort(key=lambda w: len(chains[w]))
        if not placed:
            root = _seed_qubit(hardware, used, rng)
            chains[var] = {root}
            used.add(root)
            continue
        # Seed the new chain on the first free qubit next to the first
        # (smallest) neighbour chain, then snake it towards each
        # remaining neighbour in turn, annexing the connecting free
        # path.  Letting the chain grow incrementally succeeds where
        # demanding a single root reachable from *all* neighbours at
        # once fails.
        root = next(
            (
                w
                for q in chains[placed[0]]
                for w in hardware.adjacency[q]
                if w not in used
            ),
            None,
        )
        if root is None:
            raise EmbeddingError(
                f"chain of first neighbour of {var!r} is walled in"
            )
        chain = {root}
        for w in placed[1:]:
            if _chains_touch(hardware, chain, chains[w]):
                continue
            path = _connect(hardware, chain, chains[w], used)
            if path is None:
                raise EmbeddingError(
                    f"cannot route {var!r} to its neighbour {w!r}"
                )
            chain |= path
        chains[var] = chain
        used.update(chain)
    return chains


def _chains_touch(hardware: HardwareGraph, a: set[int], b: set[int]) -> bool:
    """True if some coupler joins the two qubit sets."""
    small, large = (a, b) if len(a) <= len(b) else (b, a)
    return any(w in large for q in small for w in hardware.adjacency[q])


def _connect(
    hardware: HardwareGraph,
    chain: set[int],
    target: set[int],
    used: set[int],
) -> set[int] | None:
    """Shortest free path from ``chain`` to a qubit adjacent to ``target``.

    BFS starts at free qubits adjacent to ``chain`` and stops at the
    first qubit adjacent to ``target``; returns the path qubits (to be
    annexed into ``chain``), or ``None`` when no free route exists
    within the radius.
    """
    target_frontier = {
        q
        for t in target
        for q in hardware.adjacency[t]
        if q not in used
    }
    if not target_frontier:
        return None
    dist: dict[int, int] = {}
    parent: dict[int, int | None] = {}
    queue: deque[int] = deque()
    for q in chain:
        for w in hardware.adjacency[q]:
            if w not in used and w not in dist:
                dist[w] = 1
                parent[w] = None
                queue.append(w)
                if w in target_frontier:
                    return {w}
    while queue:
        q = queue.popleft()
        if dist[q] >= _BFS_RADIUS:
            continue
        for w in hardware.adjacency[q]:
            if w not in used and w not in dist:
                dist[w] = dist[q] + 1
                parent[w] = q
                if w in target_frontier:
                    return _walk_back(w, parent)
                queue.append(w)
    return None


def clique_embedding_auto(variables: Sequence[Variable]) -> Embedding:
    """Clique template on the smallest Chimera grid that fits.

    Mirrors the real-world workflow of moving to a bigger chip when a
    problem does not fit: builds ``chimera_graph(ceil(n/4))`` and lays
    the variables out with :func:`clique_embedding`.
    """
    from .topology import chimera_graph

    t = 4
    m_needed = max(1, -(-len(variables) // t))
    return clique_embedding(variables, chimera_graph(m_needed, t))


def _seed_qubit(hardware: HardwareGraph, used: set[int], rng: random.Random) -> int:
    """A starting qubit for a variable with no placed neighbours.

    Staying adjacent to the already-used region keeps the layout compact
    (scattered seeds fragment the free space and doom later chains); the
    very first seed goes near the middle of the chip.
    """
    if not used:
        centre = hardware.num_qubits // 2
        for offset in range(hardware.num_qubits):
            for q in (centre + offset, centre - offset):
                if 0 <= q < hardware.num_qubits:
                    return q
    frontier = [
        q
        for u in used
        for q in hardware.adjacency[u]
        if q not in used
    ]
    if frontier:
        return frontier[rng.randrange(len(frontier))]
    free = [q for q in range(hardware.num_qubits) if q not in used]
    if not free:
        raise EmbeddingError("hardware exhausted")
    return free[rng.randrange(len(free))]


#: BFS horizon for chain growth; compact layouts never need paths this
#: long, and capping the search keeps embedding near-linear in practice.
_BFS_RADIUS = 24


def _walk_back(root: int, parent: dict[int, int | None]) -> set[int]:
    """Path qubits from ``root`` back to (but excluding) the source chain."""
    path: set[int] = set()
    q: int | None = root
    while q is not None:
        path.add(q)
        q = parent[q]
    return path


def suggest_chain_strength(
    linear: dict[Variable, float], quadratic: dict[tuple[Variable, Variable], float]
) -> float:
    """A chain coupling magnitude that normally keeps chains intact.

    Uses the uniform-torque-compensation flavour: a multiple of the RMS
    coupling magnitude, floored at the largest single bias.
    """
    import math

    values = [abs(b) for b in quadratic.values()] or [1.0]
    rms = math.sqrt(sum(v * v for v in values) / len(values))
    peak = max([abs(b) for b in linear.values()] + values + [1.0])
    return max(1.414 * rms, peak)
