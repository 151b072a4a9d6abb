"""qMKP — Quantum Maximum k-Plex Search (Algorithm 3).

Binary search on the size threshold ``T``, calling qTKP as the decision
procedure.  The paper highlights two properties this module surfaces
explicitly:

* **progression** — every successful qTKP probe yields a feasible
  k-plex; the run log records (cumulative cost, size) pairs, so the
  "first feasible result within the first O(1/log n) of the runtime, at
  least half the optimum" claim is measurable;
* **orthogonality** — graph reduction (core-truss co-pruning) and the
  polynomial upper bounds can shrink the instance / search interval
  before the quantum search runs; both hooks are built in.

Every probe's marked set is a suffix of one size-partitioned table per
``(graph, k)`` (:class:`repro.perf.MarkedSetCache`), grown level by
level from the empty set in ``O(M * n)`` for ``M`` k-plexes rather than
tested over all ``2^n`` subsets.  Graphs stay at ``n <= 26``
(:data:`repro.perf.MAX_VERTICES`) until the measurement and the
table's memory are bounded for wider ones.

On top of the paper's algorithm sits the gate-stack resilience layer
(PR 5): a qMKP run can carry a :class:`~repro.resilience.DeadlineBudget`
of gate units shared across all probes (degrading to the classical
branch search when it expires), journal every completed probe into a
write-ahead checkpoint (so a killed run resumes **bit-identically** via
``qmkp(..., resume=PATH)``), and route every Grover execution through a
:class:`~repro.resilience.GateFaultInjector` whose corrupted samples
are caught by qTKP's self-verifying measurement loop.  All of it is
opt-in: with every knob at its default the run is byte-identical to the
pre-resilience implementation.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..graphs import Graph, co_prune
from ..kplex import best_upper_bound, is_kplex, maximum_kplex
from ..obs import NULL_TRACER
from ..perf import MarkedSetCache
from ..resilience.checkpoint import (
    CheckpointCorruptError,
    CheckpointJournal,
    CheckpointMismatchError,
    restore_rng_state,
    rng_state,
    validate_header,
)
from ..resilience.deadline import DeadlineBudget
from ..resilience.gate import GateFaultInjector, GateFaultPlan, GateVerification
from .oracle import OracleCosts
from .qtkp import QTKPResult, qtkp

__all__ = ["ProgressCallback", "ProgressEvent", "QMKPResult", "qmkp"]

#: Anytime-streaming hook: called with each new incumbent's
#: :class:`ProgressEvent`, the (verified) vertex set itself in
#: working-graph ids, and whether the incumbent was replayed from a
#: checkpoint journal — see the ``on_progress`` parameter of :func:`qmkp`.
ProgressCallback = Callable[["ProgressEvent", frozenset[int], bool], None]


@dataclass(frozen=True)
class ProgressEvent:
    """One feasible solution surfacing during the binary search."""

    cumulative_oracle_calls: int
    cumulative_gate_units: int
    size: int
    threshold: int


@dataclass(frozen=True)
class QMKPResult:
    """Outcome of a qMKP run.

    ``progression`` lists feasible solutions in discovery order; its
    first entry is the paper's "first result".  The resilience fields
    keep their defaults on a clean, feature-off run: ``degraded_to``
    names the classical fallback that finished the search when the
    gate-unit deadline expired, ``resumed_probes`` counts probes
    replayed from a checkpoint journal, and ``verification`` is the
    aggregated sample-verification ledger of a fault-injected run.
    """

    subset: frozenset[int]
    oracle_calls: int
    gate_units: int
    qtkp_calls: int
    progression: list[ProgressEvent] = field(default_factory=list)
    probes: list[QTKPResult] = field(default_factory=list, repr=False)
    oracle_costs_total: dict[str, int] = field(default_factory=dict)
    degraded_to: str | None = None
    deadline_expired: bool = False
    resumed_probes: int = 0
    verification: dict[str, object] | None = field(
        default=None, repr=False, compare=False
    )

    @property
    def size(self) -> int:
        return len(self.subset)

    @property
    def first_result(self) -> ProgressEvent | None:
        return self.progression[0] if self.progression else None

    def first_result_fraction(self) -> float | None:
        """Fraction of total gate units spent when the first result appeared."""
        if not self.progression or self.gate_units == 0:
            return None
        return self.progression[0].cumulative_gate_units / self.gate_units


def qmkp(
    graph: Graph,
    k: int,
    counting: str = "exact",
    reduce_first: bool = False,
    use_upper_bound: bool = True,
    rng: np.random.Generator | int | None = None,
    use_cache: bool = True,
    cache: MarkedSetCache | None = None,
    warm: frozenset[int] | None = None,
    kernel: str | None = None,
    tracer=None,
    deadline: DeadlineBudget | float | None = None,
    checkpoint: str | Path | None = None,
    resume: str | Path | None = None,
    gate_faults: GateFaultPlan | str | None = None,
    on_progress: ProgressCallback | None = None,
) -> QMKPResult:
    """Find a maximum k-plex by binary search over qTKP.

    Parameters
    ----------
    graph, k:
        The MKP instance.
    counting:
        Forwarded to :func:`repro.core.qtkp.qtkp`.
    reduce_first:
        Apply core-truss co-pruning (with a trivial lower bound of
        ``k``: any ``k`` vertices form a k-plex) before searching — the
        paper's trick for fitting larger graphs on the simulator.
    use_upper_bound:
        Initialise the binary search's upper end from the polynomial
        bounds instead of ``n``.
    rng:
        One seeded :class:`numpy.random.Generator` (or an int seed)
        threaded end-to-end through every qTKP probe, BBHT round, and
        Grover measurement — no layer below creates its own generator,
        so a fixed seed pins the whole run.
    use_cache:
        Share one marked-set table across all threshold probes
        (:class:`repro.perf.MarkedSetCache`) instead of re-scanning
        ``2^n`` masks through the predicate per probe.  Results are
        bit-identical with or without the cache; ``False`` forces the
        seed path (for benchmarking and equivalence tests).
    cache:
        An existing cache to reuse across qMKP runs; implies
        ``use_cache``.  When None and ``use_cache`` is set, a run-local
        cache is created.
    warm:
        A known-feasible k-plex of ``graph`` (input-graph vertex ids)
        used as the search's initial incumbent: it is classically
        re-verified, recorded as the first progression entry, and lifts
        the binary search's lower end to ``len(warm) + 1`` — the
        incremental solver's carry-over channel, where the previous
        step's optimum (possibly shrunk by one endpoint) prunes the
        bottom of the ladder.  **Not** byte-identity preserving: the
        threshold sequence changes, so only the returned optimum size is
        guaranteed to match a cold run.  Incompatible with
        ``reduce_first`` (the seed is expressed in unreduced ids).
    kernel:
        Kernel-backend name for the run-local marked-set enumeration
        (:mod:`repro.perf.kernels`); ignored when an explicit ``cache``
        is supplied (the cache carries its own).  All backends produce
        byte-identical results.
    tracer:
        Optional :class:`repro.obs.Tracer`.  Opens a ``qmkp`` root span
        with one ``qtkp`` child per binary-search probe, routes the
        marked-set cache's hit/miss accounting through the same span
        tree, and claims the result's totals (oracle calls, gate units,
        probe count, cache deltas) so
        :meth:`repro.obs.RunLedger.verify` can prove them drift-free.
        None = no-op tracer.
    deadline:
        Gate-unit budget shared across all probes (a
        :class:`~repro.resilience.DeadlineBudget` or a plain float).
        Checked between probes; on expiry the remaining interval is
        finished by the classical :func:`repro.kplex.maximum_kplex`
        branch search and the result records ``degraded_to``.
    checkpoint:
        Path of a write-ahead probe journal
        (:class:`~repro.resilience.CheckpointJournal`): every completed
        probe — threshold, verified witness, cost accounting, RNG state
        — is fsynced before the search advances, so a SIGKILL loses at
        most the probe in flight.
    resume:
        Path of an existing journal to resume from.  Completed probes
        are replayed (witnesses re-verified classically), the RNG state
        is restored, and the search continues live — bit-identical to
        the uninterrupted run.  Pass the same path as ``checkpoint`` to
        keep extending the journal across kills.
    gate_faults:
        A :class:`~repro.resilience.GateFaultPlan` (or its string form,
        e.g. ``"transient=2,readout=0.5,seed=7"``) injected into every
        probe's Grover executions and measurements; the self-verifying
        loop in qTKP rejects corrupted samples against the classical
        certificate and the aggregated accounting lands on
        ``result.verification``.
    on_progress:
        Anytime-streaming hook, called as ``on_progress(event, subset,
        replayed)`` the moment each new incumbent lands — qMKP is
        progressive (every successful probe yields a feasible k-plex),
        and this is how the service layer pushes verified incumbents to
        callers before the threshold ladder finishes.  Fires for
        journal-replayed probes too, with ``replayed=True`` (a resumed
        run re-announces its incumbents, so a reconnecting caller sees
        the current best, never a silent regression).  ``subset`` is in
        *working-graph* vertex ids: identical to the input graph's ids
        unless ``reduce_first`` pruned it.  The clean path is untouched
        when None (the default).
    """
    if warm is not None and reduce_first:
        raise ValueError(
            "warm seeds cannot be combined with reduce_first: the seed "
            "is in input-graph ids, the reduced search space is not"
        )
    rng = np.random.default_rng(rng)
    tracer = tracer or NULL_TRACER
    if cache is None and use_cache:
        cache = MarkedSetCache(kernel=kernel)
    if isinstance(gate_faults, str):
        gate_faults = GateFaultPlan.parse(gate_faults)
    injector = (
        GateFaultInjector(gate_faults)
        if gate_faults is not None and not gate_faults.is_noop
        else None
    )
    if deadline is not None and not isinstance(deadline, DeadlineBudget):
        deadline = DeadlineBudget(deadline)
    with tracer.span(
        "qmkp", n=graph.num_vertices, k=k, counting=counting
    ) as span:
        # Route the cache's accounting through this run's tracer for the
        # duration (restored after — the cache may be shared across runs).
        cache_tracer_prev = None
        stats_before = None
        if cache is not None:
            cache_tracer_prev = cache.tracer
            cache.tracer = tracer
            stats_before = cache.stats()
        try:
            result = _qmkp_body(
                graph, k, counting, reduce_first, use_upper_bound, rng,
                cache, tracer, injector, deadline, checkpoint, resume,
                on_progress, warm,
            )
        finally:
            if cache is not None:
                cache.tracer = cache_tracer_prev
        span.set("size", result.size)
        span.claim("oracle_calls", result.oracle_calls)
        span.claim("gate_units", result.gate_units)
        span.claim("qtkp_calls", result.qtkp_calls)
        if result.resumed_probes:
            span.set("resumed_probes", result.resumed_probes)
        if result.degraded_to:
            span.set("degraded_to", result.degraded_to)
        if stats_before is not None:
            stats_after = cache.stats()
            span.claim(
                "marked_cache_hits", stats_after["hits"] - stats_before["hits"]
            )
            span.claim(
                "marked_cache_misses",
                stats_after["misses"] - stats_before["misses"],
            )
    return result


def _journal_header(
    graph: Graph,
    working: Graph,
    k: int,
    counting: str,
    reduce_first: bool,
    use_upper_bound: bool,
    rng: np.random.Generator,
    warm: frozenset[int] | None,
) -> dict[str, object]:
    """The instance-binding fields a checkpoint must match to be replayed."""
    return {
        "graph": graph.fingerprint(),
        "working": working.fingerprint(),
        "n": working.num_vertices,
        "k": k,
        "counting": counting,
        "reduce_first": reduce_first,
        "use_upper_bound": use_upper_bound,
        "rng": type(rng.bit_generator).__name__,
        "warm": sorted(warm) if warm is not None else None,
    }


def _probe_record(
    probe: QTKPResult, rng: np.random.Generator
) -> dict[str, object]:
    """One completed probe as a JSON-safe WAL record (RNG state *after*)."""
    record: dict[str, object] = {
        "threshold": None,  # filled by caller (the binary-search mid)
        "found": probe.found,
        "subset": sorted(probe.subset),
        "iterations": probe.iterations,
        "oracle_calls": probe.oracle_calls,
        "num_marked": probe.num_marked,
        "success_probability": probe.success_probability,
        "attempts": probe.attempts,
        "gate_units": probe.gate_units,
        "oracle_costs": {
            "encode": probe.oracle_costs.encode,
            "degree_count": probe.oracle_costs.degree_count,
            "degree_compare": probe.oracle_costs.degree_compare,
            "size_check": probe.oracle_costs.size_check,
            "mark": probe.oracle_costs.mark,
        },
        "rng_state": rng_state(rng),
    }
    if probe.verification is not None:
        record["verification"] = probe.verification.as_dict()
    return record


def _probe_from_record(record: dict[str, object]) -> QTKPResult:
    """Rebuild the :class:`QTKPResult` a journal record describes."""
    verification = None
    if record.get("verification") is not None:
        v = dict(record["verification"])
        verification = GateVerification(
            measurements=int(v.get("measurements", 0)),
            verified=int(v.get("verified", 0)),
            false_positives=int(v.get("false_positives", 0)),
            false_negative=bool(v.get("false_negative", False)),
            transient_retries=int(v.get("transient_retries", 0)),
            bbht_restarts=int(v.get("bbht_restarts", 0)),
            faults=[tuple(f) for f in v.get("faults", [])],
        )
    return QTKPResult(
        subset=frozenset(int(v) for v in record["subset"]),
        found=bool(record["found"]),
        iterations=int(record["iterations"]),
        oracle_calls=int(record["oracle_calls"]),
        num_marked=int(record["num_marked"]),
        success_probability=float(record["success_probability"]),
        attempts=int(record["attempts"]),
        gate_units=int(record["gate_units"]),
        oracle_costs=OracleCosts(**{
            key: int(value)
            for key, value in record["oracle_costs"].items()
        }),
        verification=verification,
    )


def _qmkp_body(
    graph: Graph,
    k: int,
    counting: str,
    reduce_first: bool,
    use_upper_bound: bool,
    rng: np.random.Generator,
    cache: MarkedSetCache | None,
    tracer,
    injector: GateFaultInjector | None,
    deadline: DeadlineBudget | None,
    checkpoint: str | Path | None,
    resume: str | Path | None,
    on_progress: ProgressCallback | None = None,
    warm: frozenset[int] | None = None,
) -> QMKPResult:
    working = graph
    translate = None
    if reduce_first and graph.num_vertices:
        reduction = co_prune(graph, k, lower_bound=min(k, graph.num_vertices))
        if reduction.graph.num_vertices:
            working = reduction.graph
            translate = reduction
    n = working.num_vertices
    if n == 0:
        return QMKPResult(frozenset(), 0, 0, 0)

    lo = 1
    hi = best_upper_bound(working, k) if use_upper_bound else n
    hi = max(lo, hi)
    best: frozenset[int] = frozenset()
    probes: list[QTKPResult] = []
    progression: list[ProgressEvent] = []
    oracle_calls = 0
    gate_units = 0
    totals = {"encode": 0, "degree_count": 0, "degree_compare": 0, "size_check": 0}

    def note_best(subset: frozenset[int], mid: int, replayed: bool) -> None:
        """Record a new incumbent: progression entry, tracer, callback."""
        nonlocal best
        best = subset
        progression.append(
            ProgressEvent(oracle_calls, gate_units, len(best), mid)
        )
        tracer.set(
            "progression",
            [
                [e.cumulative_oracle_calls, e.cumulative_gate_units,
                 e.size, e.threshold]
                for e in progression
            ],
        )
        if on_progress is not None:
            on_progress(progression[-1], best, replayed)

    def apply_probe(probe: QTKPResult, mid: int, replayed: bool = False) -> None:
        """The binary-search update rule, shared by replay and live probes."""
        nonlocal lo, hi, oracle_calls, gate_units
        probes.append(probe)
        oracle_calls += probe.oracle_calls
        gate_units += probe.gate_units
        _accumulate(totals, probe.oracle_costs, probe.oracle_calls)
        if probe.found:
            if len(probe.subset) > len(best):
                note_best(probe.subset, mid, replayed)
            lo = max(mid, len(probe.subset)) + 1
        else:
            hi = mid - 1

    if warm is not None:
        warm = frozenset(int(v) for v in warm)
        if warm and not is_kplex(working, warm, k):
            raise ValueError(
                f"warm seed of size {len(warm)} failed classical "
                f"k-plex verification (k={k})"
            )
        if warm:
            # A verified incumbent before any probe: the paper's
            # progressive guarantee now starts at the seed's size, and
            # every threshold <= len(warm) is already decided.
            note_best(warm, len(warm), False)
            lo = max(lo, len(warm) + 1)
            tracer.add("warm_start_hits", 1)

    header = _journal_header(
        graph, working, k, counting, reduce_first, use_upper_bound, rng, warm,
    )

    # ------------------------------------------------------------------
    # Resume: replay the journal's completed probes through the same
    # update rule, re-verify every witness, restore the RNG state.
    # ------------------------------------------------------------------
    resumed = 0
    if resume is not None:
        loaded_header, records = CheckpointJournal.load(resume)
        validate_header(header, loaded_header, str(resume))
        if records:
            with tracer.span(
                "checkpoint.replay", path=str(resume), probes=len(records)
            ) as rspan:
                replay_oracle = 0
                replay_gate = 0
                replay_attempts = 0
                for record in records:
                    if lo > hi:
                        raise CheckpointCorruptError(
                            f"{resume}: journal holds more probes than the "
                            "search interval admits"
                        )
                    mid = (lo + hi) // 2
                    if int(record["threshold"]) != mid:
                        raise CheckpointMismatchError(
                            f"{resume}: journal probe at threshold "
                            f"{record['threshold']} but the search "
                            f"sequence expects {mid}"
                        )
                    probe = _probe_from_record(record)
                    if probe.found and not (
                        len(probe.subset) >= mid
                        and is_kplex(working, probe.subset, k)
                    ):
                        raise CheckpointCorruptError(
                            f"{resume}: journal witness for threshold {mid} "
                            "failed classical re-verification"
                        )
                    replay_oracle += probe.oracle_calls
                    replay_gate += probe.gate_units
                    replay_attempts += probe.attempts
                    apply_probe(probe, mid, replayed=True)
                    if deadline is not None:
                        deadline.charge(probe.gate_units)
                # Replayed work is charged inside this span so the qmkp
                # root's claims still reconcile — the ledger proves the
                # journal's totals and the result object agree.
                tracer.add("oracle_calls", replay_oracle)
                tracer.add("gate_units", replay_gate)
                tracer.add("qtkp_calls", len(records))
                tracer.add("qtkp_attempts", replay_attempts)
                rspan.claim("oracle_calls", replay_oracle)
                rspan.claim("gate_units", replay_gate)
                rspan.claim("qtkp_calls", len(records))
                rspan.claim("qtkp_attempts", replay_attempts)
            restore_rng_state(rng, records[-1]["rng_state"])
            resumed = len(records)

    journal = None
    if checkpoint is not None:
        keep = resume is not None and Path(resume) == Path(checkpoint)
        journal = CheckpointJournal(checkpoint, header, resume=keep)

    degraded_to: str | None = None
    deadline_expired = False
    try:
        while lo <= hi:
            if deadline is not None and deadline.expired:
                deadline_expired = True
                break
            mid = (lo + hi) // 2
            probe = qtkp(
                working, k, mid, counting=counting, rng=rng, cache=cache,
                tracer=tracer, injector=injector,
            )
            if deadline is not None:
                deadline.charge(probe.gate_units)
            apply_probe(probe, mid)
            if journal is not None:
                record = _probe_record(probe, rng)
                record["threshold"] = mid
                journal.append_probe(record)
    finally:
        if journal is not None:
            journal.close()

    if deadline_expired:
        # Documented degradation: the gate budget is spent, so the
        # remaining interval is decided by the exact classical branch
        # search — never a silent "best so far".
        with tracer.span(
            "qmkp.fallback", reason="deadline", lo=lo, hi=hi,
            warm_incumbent=len(best),
        ):
            tracer.add("deadline_fallbacks", 1)
            # Seed the branch search with the surviving incumbent — a
            # verified k-plex of ``working`` — so resumed or mutation
            # jobs degrade with their bound intact instead of
            # re-deriving it from the greedy seed.
            classical = maximum_kplex(
                working, k, initial_incumbent=best if best else None
            ).subset
        degraded_to = "kplex.branch_search"
        if len(classical) > len(best):
            best = classical

    verification = None
    if injector is not None:
        agg = GateVerification()
        for probe in probes:
            if probe.verification is not None:
                agg.merge(probe.verification)
        verification = agg.as_dict()
        verification["executions"] = injector.executions

    if translate is not None:
        best = translate.translate_back(best)
    return QMKPResult(
        subset=best,
        oracle_calls=oracle_calls,
        gate_units=gate_units,
        qtkp_calls=len(probes),
        progression=progression,
        probes=probes,
        oracle_costs_total=totals,
        degraded_to=degraded_to,
        deadline_expired=deadline_expired,
        resumed_probes=resumed,
        verification=verification,
    )


def _accumulate(totals: dict[str, int], costs: OracleCosts, calls: int) -> None:
    totals["encode"] += costs.encode * calls
    totals["degree_count"] += costs.degree_count * calls
    totals["degree_compare"] += costs.degree_compare * calls
    totals["size_check"] += costs.size_check * calls
