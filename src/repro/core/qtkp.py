"""qTKP — Quantum k-Plex with Size T Search (Algorithm 2).

Pipeline, exactly as in the paper:

1. complement the input graph (k-plex -> k-cplex);
2. build the four-part oracle (:class:`repro.core.oracle.KCplexOracle`);
3. prepare the uniform superposition over all ``2^n`` subsets;
4. Grover-iterate ``floor(pi/4 * sqrt(2^n / M))`` times, where ``M`` is
   the number of solutions, estimated by quantum counting (Brassard et
   al.) or taken exactly;
5. measure the vertex register and verify the candidate classically
   (at least ``T`` vertices and an O(n^2) k-plex check); retry on a bad
   collapse.

qTKP is the decision procedure of qMKP's binary search
(:mod:`repro.core.qmkp`); a probe answers exactly one threshold and
keeps no state between calls.

Steps 3-5 run on :class:`repro.grover.PhaseOracleGrover`, which keeps
the two amplitudes (marked / unmarked) the register ever holds, so a
probe's Grover run costs O(iterations) at any ``n``.

Cost accounting: every Grover round costs one phase-oracle call plus
one diffusion operator; the per-component split feeds Table IV and the
classical-vs-quantum tables.  The oracle's gate counts are priced from
the complement's degree sequence (:func:`repro.core.oracle.price_oracle`,
O(n) per probe) rather than read off a built circuit, so a probe with a
marked-set cache builds no circuit at all.  Without a cache a probe
still builds :class:`~repro.core.oracle.KCplexOracle` for its predicate,
the seed path's marking oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..graphs import Graph
from ..grover import (
    PhaseOracleGrover,
    bbht_search,
    best_iterations,
    diffusion_gate_count,
    optimal_iterations,
)
from ..kplex import is_kplex
from ..obs import NULL_TRACER
from ..perf import MarkedSetCache
from ..quantum import quantum_count
from ..resilience.gate import (
    GateFaultInjector,
    GateVerification,
    execute_with_retries,
)
from .oracle import KCplexOracle, OracleCosts, price_oracle

__all__ = ["QTKPResult", "qtkp"]

#: Schedule restarts granted to BBHT when gate faults are injected —
#: noise can defeat a whole exponential schedule, so a noisy run gets a
#: bounded number of fresh ceilings before declaring infeasibility.
_BBHT_FAULT_RESTARTS = 2


@dataclass(frozen=True)
class QTKPResult:
    """Outcome of one qTKP run.

    Attributes
    ----------
    subset:
        A verified k-plex of size >= T, or the empty frozenset.
    found:
        Whether a solution was found and verified.
    iterations:
        Grover rounds per attempt.
    oracle_calls:
        Total oracle invocations across all attempts.
    num_marked:
        Solution count ``M`` used for the schedule.
    success_probability:
        Exact probability that one measurement succeeds.
    attempts:
        Measurement attempts consumed (1 = first try).
    gate_units:
        Total gates executed (oracle + diffusion, all iterations).
    oracle_costs:
        Per-component gate counts of a single oracle call.
    verification:
        Sample-verification ledger
        (:class:`repro.resilience.GateVerification`) — measurements
        taken, certificates passed, false positives rejected, transient
        retries, and whether the outcome is a known false negative.
        ``None`` unless a fault injector was active (the clean path
        stays byte-identical to the un-instrumented run).
    """

    subset: frozenset[int]
    found: bool
    iterations: int
    oracle_calls: int
    num_marked: int
    success_probability: float
    attempts: int
    gate_units: int
    oracle_costs: OracleCosts = field(repr=False, default=None)  # type: ignore[assignment]
    verification: GateVerification | None = field(
        default=None, repr=False, compare=False
    )


def qtkp(
    graph: Graph,
    k: int,
    threshold: int,
    counting: str = "exact",
    max_attempts: int = 8,
    rng: np.random.Generator | int | None = None,
    cache: MarkedSetCache | None = None,
    tracer=None,
    injector: GateFaultInjector | None = None,
) -> QTKPResult:
    """Find a k-plex of size at least ``threshold``, or report failure.

    Parameters
    ----------
    graph, k, threshold:
        The decision instance (``1 <= threshold <= n``).
    counting:
        ``"exact"`` evaluates ``M`` from the oracle predicate (the
        idealised quantum counting limit); ``"quantum"`` runs the
        simulated quantum counting estimator, whose sampling error is
        the one real hardware would exhibit; ``"bbht"`` skips counting
        entirely and uses the Boyer-Brassard-Hoyer-Tapp exponential
        schedule (expected ``O(sqrt(N/M))`` oracle calls, ``M`` never
        learned — ``iterations`` is reported as 0 in this mode and
        ``success_probability`` is 1/0 for found/not found).
    max_attempts:
        Measure/verify retries before declaring failure.
    rng:
        Source of measurement randomness.
    cache:
        Optional :class:`repro.perf.MarkedSetCache`.  When given, the
        marked set comes from the bit-parallel table for ``(graph, k)``
        (one vectorized sweep, shared across thresholds) instead of a
        fresh ``2^n`` Python predicate scan; results are bit-identical
        either way.
    tracer:
        Optional :class:`repro.obs.Tracer`.  Opens one ``qtkp`` span
        with a child span per Grover execution; oracle calls and gate
        units are charged at the leaves and the result's totals are
        claimed for the run-ledger drift check.  None = no-op tracer.
    injector:
        Optional :class:`repro.resilience.GateFaultInjector`.  Routes
        every Grover execution and measurement through the gate-stack
        fault model: transient simulator errors are retried (with
        ``gate.retry`` spans), depolarizing dampening is forwarded into
        the engine, readout bit-flips corrupt measured masks — and the
        self-verifying loop checks each sample against the classical
        certificate (``gate.verify`` spans) before trusting it, so an
        injected corruption costs a retry, never a wrong answer.  With
        ``None`` the clean path runs byte-identically to a build
        without this feature.
    """
    if not (1 <= threshold <= max(graph.num_vertices, 1)):
        raise ValueError(
            f"threshold must be in [1, n={graph.num_vertices}], got {threshold}"
        )
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if max_attempts < 1:
        raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
    if counting not in ("exact", "quantum", "bbht"):
        raise ValueError(
            f"counting must be 'exact', 'quantum', or 'bbht', got {counting!r}"
        )
    rng = np.random.default_rng(rng)
    tracer = tracer or NULL_TRACER
    if injector is not None and injector.plan.is_noop:
        injector = None
    with tracer.span(
        "qtkp", n=graph.num_vertices, k=k, threshold=threshold, counting=counting
    ) as span:
        result = _qtkp_body(
            graph, k, threshold, counting, max_attempts, rng, cache, tracer, injector
        )
        tracer.add("qtkp_calls", 1)
        span.set("found", result.found)
        span.set("size", len(result.subset))
        span.claim("oracle_calls", result.oracle_calls)
        span.claim("gate_units", result.gate_units)
        span.claim("qtkp_attempts", result.attempts)
        if result.verification is not None:
            v = result.verification
            span.claim("gate_retries", v.transient_retries + v.bbht_restarts)
            if counting != "bbht":
                span.claim("gate_verifications", v.measurements)
    return result


def _qtkp_body(
    graph: Graph,
    k: int,
    threshold: int,
    counting: str,
    max_attempts: int,
    rng: np.random.Generator,
    cache: MarkedSetCache | None,
    tracer,
    injector: GateFaultInjector | None,
) -> QTKPResult:
    n = graph.num_vertices
    if cache is not None:
        engine = PhaseOracleGrover(n, cache.marked(graph, k, threshold))
    else:
        oracle = KCplexOracle(graph.complement(), k, threshold)
        engine = PhaseOracleGrover(n, oracle.predicate)
    per_call = price_oracle([n - 1 - d for d in graph.degrees()], k, threshold)
    exact_m = engine.num_marked

    stats = GateVerification() if injector is not None else None
    fault_log_start = len(injector.fault_log) if injector is not None else 0

    if counting == "quantum" and exact_m:
        estimate = quantum_count(n, exact_m, rng=rng).rounded
        num_marked = max(1, min(estimate, 1 << n))
    else:
        num_marked = exact_m

    per_round = per_call.total + diffusion_gate_count(n)

    if counting == "bbht":
        with tracer.span("qtkp.bbht"):
            if injector is None:
                result = bbht_search(engine, rng=rng)
            else:
                result = bbht_search(
                    engine,
                    rng=rng,
                    restarts=_BBHT_FAULT_RESTARTS,
                    execute=lambda eng, iters: execute_with_retries(
                        eng, iters, injector, stats, tracer, max_attempts
                    ),
                    corrupt=lambda mask: injector.corrupt_measurement(mask, n),
                    tracer=tracer,
                )
                stats.measurements = result.rounds
                stats.verified = int(result.found)
                stats.false_positives = result.rejected
                stats.bbht_restarts = result.restarts_used
                stats.false_negative = not result.found and exact_m > 0
                stats.faults = list(injector.fault_log[fault_log_start:])
            tracer.add("oracle_calls", result.oracle_calls)
            tracer.add("gate_units", result.oracle_calls * per_round)
            tracer.add("qtkp_attempts", result.rounds)
        subset = (
            graph.bitmask_to_subset(result.mask) if result.found else frozenset()
        )
        return QTKPResult(
            subset=subset,
            found=result.found,
            iterations=0,
            oracle_calls=result.oracle_calls,
            num_marked=exact_m,
            success_probability=1.0 if result.found else 0.0,
            attempts=result.rounds,
            gate_units=result.oracle_calls * per_round,
            oracle_costs=per_call,
            verification=stats,
        )

    if exact_m == 0:
        # The hardware would iterate on the M estimate, measure, and fail
        # verification; charge one full attempt at the smallest schedule.
        iterations = optimal_iterations(1 << n, 1)
        with tracer.span("qtkp.attempt", attempt=1, empty_marked_set=True):
            tracer.add("oracle_calls", iterations)
            tracer.add("gate_units", iterations * per_round)
            tracer.add("qtkp_attempts", 1)
        return QTKPResult(
            subset=frozenset(),
            found=False,
            iterations=iterations,
            oracle_calls=iterations,
            num_marked=0,
            success_probability=0.0,
            attempts=1,
            gate_units=iterations * per_round,
            oracle_costs=per_call,
            verification=stats,
        )

    iterations = best_iterations(1 << n, num_marked)
    if injector is None:
        run = engine.run(iterations)
    else:
        run = execute_with_retries(
            engine, iterations, injector, stats, tracer, max_attempts
        )
    oracle_calls = 0
    for attempt in range(1, max_attempts + 1):
        oracle_calls += iterations
        with tracer.span("qtkp.attempt", attempt=attempt) as attempt_span:
            tracer.add("oracle_calls", iterations)
            tracer.add("gate_units", iterations * per_round)
            tracer.add("qtkp_attempts", 1)
            mask = run.measure_once(rng)
            if injector is None:
                subset = graph.bitmask_to_subset(mask)
                verified = len(subset) >= threshold and is_kplex(graph, subset, k)
            else:
                # Self-verifying sampling: the measured candidate is
                # checked against the classical certificate before it
                # is trusted, so injected readout/depolarizing noise
                # costs a retry, never a wrong answer.
                with tracer.span("gate.verify", attempt=attempt) as vspan:
                    tracer.add("gate_verifications", 1)
                    mask = injector.corrupt_measurement(mask, n)
                    subset = graph.bitmask_to_subset(mask)
                    verified = (
                        len(subset) >= threshold and is_kplex(graph, subset, k)
                    )
                    stats.measurements += 1
                    if verified:
                        stats.verified += 1
                    else:
                        stats.false_positives += 1
                    vspan.set("verified", verified)
            attempt_span.set("verified", verified)
        if verified:
            if stats is not None:
                stats.faults = list(injector.fault_log[fault_log_start:])
            return QTKPResult(
                subset=subset,
                found=True,
                iterations=iterations,
                oracle_calls=oracle_calls,
                num_marked=num_marked,
                success_probability=run.success_probability,
                attempts=attempt,
                gate_units=oracle_calls * per_round,
                oracle_costs=per_call,
                verification=stats,
            )
    if stats is not None:
        stats.false_negative = exact_m > 0
        stats.faults = list(injector.fault_log[fault_log_start:])
    return QTKPResult(
        subset=frozenset(),
        found=False,
        iterations=iterations,
        oracle_calls=oracle_calls,
        num_marked=num_marked,
        success_probability=run.success_probability,
        attempts=max_attempts,
        gate_units=oracle_calls * per_round,
        oracle_costs=per_call,
        verification=stats,
    )
