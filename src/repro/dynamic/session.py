"""Incremental re-solve sessions over a mutating graph.

An :class:`IncrementalSolver` owns a :class:`~repro.dynamic.DynamicGraph`
and re-solves the maximum k-plex after each batch of mutations.

With the default ``profile="exact"`` every step is a cold solve of the
post-edit graph with the step's own seed, so its result is
**byte-identical** to :func:`repro.core.qmkp` on that graph — the
property the ``tests/dynamic`` suite and the CI ``dynamic-smoke`` job
pin.  qMKP steps share the session's
:class:`~repro.perf.MarkedSetCache`: a new structure costs one level
sweep of its marked sets (milliseconds), and a stream that returns to
an earlier structure hits its table.

``profile="warm"`` adds two channels that carry work across steps:

1. **Incumbent carry-over** — the previous optimum is re-verified
   against the new graph (shrunk vertex-by-vertex if an edge deletion
   broke it; dropping one endpoint per deleted edge always restores
   feasibility) and seeds qMKP's binary-search lower bound or the
   branch search's initial incumbent.  Same optimum *size*,
   deterministic per seed, but not byte-identical: the threshold
   sequence changes.

2. **Annealing warm starts** (``solver="qamkp-sa"``) — the carried
   incumbent becomes every SA read's initial state via the QUBO's
   closed-form optimal slack completion.

Each :meth:`IncrementalSolver.resolve` opens one ``dynamic.step`` span
and *claims* its ``warm_start_hits`` on it, so
:meth:`repro.obs.RunLedger.verify` proves the advertised reuse actually
happened.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..core.qamkp import QAMKPResult, qamkp
from ..core.qmkp import QMKPResult, qmkp
from ..graphs import Graph
from ..kplex import BranchSearchResult, is_kplex, maximum_kplex
from ..obs import NULL_TRACER, RunLedger
from ..perf import MarkedSetCache
from ..resilience.checkpoint import CheckpointError
from .edits import Edit
from .graph import DynamicGraph

__all__ = ["IncrementalSolver", "StepResult", "surviving_kplex"]

SOLVERS = ("qmkp", "bs", "qamkp-sa")
PROFILES = ("exact", "warm")


def surviving_kplex(
    graph: Graph, subset: frozenset[int], k: int
) -> frozenset[int] | None:
    """The previous optimum adapted to the mutated graph, best effort.

    Returns ``subset`` itself if it is still a k-plex of ``graph``;
    otherwise greedily drops the most-deficient member (most
    non-neighbours inside the candidate, smallest id on ties) until the
    remainder verifies.  Deleting one edge breaks the k-plex property by
    at most one unit at each endpoint, so one drop per deleted edge
    always suffices — the loop is a fixpoint, not a search.  Returns
    None when nothing survives (or the input was empty).
    """
    candidate = set(subset)
    candidate = {v for v in candidate if v < graph.num_vertices}
    while candidate:
        if is_kplex(graph, frozenset(candidate), k):
            return frozenset(candidate)
        size = len(candidate)
        worst = max(
            candidate,
            key=lambda v: (size - 1 - graph.degree_in(v, candidate), -v),
        )
        candidate.discard(worst)
    return None


@dataclass(frozen=True)
class StepResult:
    """One resolved step of an incremental session."""

    step: int
    edits: tuple[Edit, ...]
    fingerprint: str
    subset: frozenset[int]
    solver: str
    profile: str
    warm_start_hits: int = 0
    resumed_probes: int = 0
    result: object = field(default=None, repr=False, compare=False)

    @property
    def size(self) -> int:
        return len(self.subset)


class IncrementalSolver:
    """A re-solve session over a stream of graph mutations.

    Parameters
    ----------
    graph:
        The initial structure — a :class:`Graph` (wrapped) or a
        :class:`DynamicGraph` (adopted; its journal keeps growing).
    k:
        The k-plex parameter, fixed for the session.
    solver:
        ``"qmkp"`` (Grover pipeline, incumbent channel),
        ``"bs"`` (classical branch search, incumbent channel only), or
        ``"qamkp-sa"`` (simulated annealing, warm-sampleset channel).
    profile:
        ``"exact"`` (default): every step equals a cold solve bit for
        bit.  ``"warm"`` adds the incumbent / sampleset channels — same
        optimum size, not byte-identical.
    seed:
        Session seed.  Step ``i`` solves with
        ``np.random.default_rng([seed, i])`` (qMKP) or an integer
        derived from the same ``SeedSequence`` (SA), so any step can be
        reproduced cold without replaying the stream.
    counting, runtime_us, kernel:
        Forwarded to the underlying solver (qMKP's counting mode, SA's
        budget, the sweep/anneal kernel backend).
    cache:
        The session's :class:`~repro.perf.MarkedSetCache` (qMKP only);
        created when omitted.
    tracer:
        Optional :class:`repro.obs.Tracer`; each resolve contributes a
        ``dynamic.step`` span whose claims :meth:`ledger` can verify.
    checkpoint_dir:
        When set (qMKP only), each step journals its probes into
        ``step{N:04d}.wal`` under this directory and ``resolve`` resumes
        a half-finished step bit-identically after a crash.
    """

    def __init__(
        self,
        graph: Graph | DynamicGraph,
        k: int,
        solver: str = "qmkp",
        profile: str = "exact",
        seed: int = 0,
        counting: str = "exact",
        runtime_us: float = 1000.0,
        kernel: str | None = None,
        cache: MarkedSetCache | None = None,
        tracer=None,
        checkpoint_dir: str | Path | None = None,
    ) -> None:
        if solver not in SOLVERS:
            raise ValueError(f"solver must be one of {SOLVERS}, got {solver!r}")
        if profile not in PROFILES:
            raise ValueError(
                f"profile must be one of {PROFILES}, got {profile!r}"
            )
        self.graph = (
            graph if isinstance(graph, DynamicGraph) else DynamicGraph(graph)
        )
        self.k = k
        self.solver = solver
        self.profile = profile
        self.seed = seed
        self.counting = counting
        self.runtime_us = runtime_us
        self.kernel = kernel
        # ``cache or ...`` would discard a caller-provided *empty* cache
        # (``MarkedSetCache.__len__`` makes it falsy).
        self.cache = cache if cache is not None else MarkedSetCache(kernel=kernel)
        self.tracer = tracer or NULL_TRACER
        self.checkpoint_dir = (
            Path(checkpoint_dir) if checkpoint_dir is not None else None
        )
        if self.checkpoint_dir is not None:
            self.checkpoint_dir.mkdir(parents=True, exist_ok=True)
        self.history: list[StepResult] = []
        self._pending: list[Edit] = []
        self._incumbent: frozenset[int] | None = None

    # ------------------------------------------------------------------
    # Mutations (journalled now, solved at the next resolve())
    # ------------------------------------------------------------------
    def _record(self, mutate) -> Edit:
        out = mutate()
        edit = self.graph.journal[-1]
        self._pending.append(edit)
        return out if isinstance(out, Edit) else edit

    def add_edge(self, u: int, v: int) -> Edit:
        return self._record(lambda: self.graph.add_edge(u, v))

    def remove_edge(self, u: int, v: int) -> Edit:
        return self._record(lambda: self.graph.remove_edge(u, v))

    def add_vertex(self) -> int:
        new_id = self.graph.add_vertex()
        self._pending.append(self.graph.journal[-1])
        return new_id

    def apply(self, edit: Edit) -> Edit:
        return self._record(lambda: self.graph.apply(edit))

    def apply_edits(self, edits) -> list[Edit]:
        return [self.apply(edit) for edit in edits]

    @property
    def pending_edits(self) -> tuple[Edit, ...]:
        """Mutations applied since the last :meth:`resolve`."""
        return tuple(self._pending)

    @property
    def next_step(self) -> int:
        return len(self.history)

    # ------------------------------------------------------------------
    # Resolution
    # ------------------------------------------------------------------
    def step_rng(self, step: int) -> np.random.Generator:
        """The deterministic per-step generator: ``default_rng([seed, step])``.

        This is the session's reproducibility contract — a cold solve of
        the post-edit graph with this generator must match the
        incremental step byte for byte under ``profile="exact"``.
        """
        return np.random.default_rng([self.seed, step])

    def step_sa_seed(self, step: int) -> int:
        """Per-step integer seed for the SA sampler, same seed tree."""
        return int(np.random.SeedSequence([self.seed, step]).generate_state(1)[0])

    def resolve(self) -> StepResult:
        """Solve the current graph, reusing the previous step's work."""
        step = self.next_step
        edits = tuple(self._pending)
        working = self.graph.snapshot()
        with self.tracer.span(
            "dynamic.step",
            step=step,
            edits=len(edits),
            n=working.num_vertices,
            k=self.k,
            solver=self.solver,
            profile=self.profile,
        ) as span:
            warm = self._warm_seed(working)
            result, subset, resumed, warm_hits = self._solve(
                working, step, warm
            )
            span.set("size", len(subset))
            span.set("fingerprint", working.fingerprint())
            if resumed:
                span.set("resumed_probes", resumed)
            span.claim("warm_start_hits", warm_hits)
        step_result = StepResult(
            step=step,
            edits=edits,
            fingerprint=working.fingerprint(),
            subset=subset,
            solver=self.solver,
            profile=self.profile,
            warm_start_hits=warm_hits,
            resumed_probes=resumed,
            result=result,
        )
        self.history.append(step_result)
        self._incumbent = subset
        self._pending = []
        return step_result

    def ledger(self) -> RunLedger:
        """The session's reconciled run ledger (see :meth:`RunLedger.verify`)."""
        return RunLedger.from_tracer(self.tracer)

    # -- internals -------------------------------------------------------
    def _warm_seed(self, working: Graph) -> frozenset[int] | None:
        if self.profile != "warm" or self._incumbent is None:
            return None
        warm = surviving_kplex(working, self._incumbent, self.k)
        return warm if warm else None

    def _solve(self, working, step, warm):
        if self.solver == "qmkp":
            result = self._solve_qmkp(working, step, warm)
            return result, result.subset, result.resumed_probes, int(
                warm is not None
            )
        if self.solver == "bs":
            result: BranchSearchResult = maximum_kplex(
                working, self.k, initial_incumbent=warm
            )
            if warm is not None:
                self.tracer.add("warm_start_hits", 1)
            return result, result.subset, 0, int(warm is not None)
        result: QAMKPResult = qamkp(
            working,
            self.k,
            solver="sa",
            runtime_us=self.runtime_us,
            seed=self.step_sa_seed(step),
            warm=warm,
            kernel=self.kernel,
            tracer=self.tracer,
        )
        return result, result.repaired, 0, int(warm is not None)

    def _solve_qmkp(self, working, step, warm) -> QMKPResult:
        kwargs: dict[str, object] = {}
        path = None
        if self.checkpoint_dir is not None:
            path = self.checkpoint_dir / f"step{step:04d}.wal"
            kwargs["checkpoint"] = path
            if path.exists():
                kwargs["resume"] = path
        try:
            return qmkp(
                working, self.k, counting=self.counting,
                rng=self.step_rng(step), cache=self.cache,
                warm=warm, tracer=self.tracer, **kwargs,
            )
        except CheckpointError:
            # A stale or corrupt step journal (e.g. the stream's edits
            # changed under a persisted workdir): discard it and solve
            # the step fresh — never resume against the wrong instance.
            if path is None or "resume" not in kwargs:
                raise
            path.unlink(missing_ok=True)
            kwargs.pop("resume")
            return qmkp(
                working, self.k, counting=self.counting,
                rng=self.step_rng(step), cache=self.cache,
                warm=warm, tracer=self.tracer, **kwargs,
            )
