"""Perf harness for the sparse incremental annealing engine.

Times the SA sampler end-to-end on a paper-style qaMKP QUBO two ways:

* ``engine`` — the current :class:`repro.annealing.SimulatedAnnealingSampler`
  (CSR sweep plan, chunked field builds, intra-chunk incremental
  updates, bytes-level dedup);
* ``seed`` — a faithful transcription of the seed sampler embedded
  below (dense ``to_numpy`` matrices, per-variable field matvecs,
  per-term energy loop, dict-per-read ``from_states`` construction),
  kept here so the before/after comparison survives the seed code's
  removal from the tree.

The harness **gates on correctness, not just speed**:

* the seed and engine samplesets must be identical fingerprint-for-
  fingerprint (assignments, energies, multiplicities, order) — the
  bit-identical contract the engine promises under fixed seeds;
* ``batched_tabu`` must reach an equal-or-better best energy than the
  seed single-trajectory tabu loop from the **same initial states at
  the same flip budget** (restarts x iterations);
* with ``--trace``, the traced run must reconcile in the run ledger
  (zero drift, ``num_flips`` matching the spans' claims) and stay
  within the tracing-overhead limit;
* the measured SA speedup must clear ``--min-speedup``;
* every available kernel backend (numpy / cext; see
  :mod:`repro.perf.kernels`) must produce a fingerprint-identical
  sampleset, and the compiled tier must clear
  ``--min-kernel-speedup`` over the NumPy reference end-to-end
  (skipped when only numpy is available);
* the **QPU arm** times one cold logical-mode QPU solve — fresh
  :class:`repro.annealing.SimulatedQPUSampler`, embedding search,
  1000 shots of 1 us, sampleset validation — on the paper's D_20_100
  QUBO at k = 3 (the Table V cell the end-to-end ``qamkp-anneal``
  workload spends most on), against a transcription of the path it
  replaced: a freshly built chip per call, greedy roots from a full
  radius-24 BFS, per-shot state rows, dict-per-shot ``from_states``
  and per-row validation.  The validated samplesets, validation
  reports and ``info`` must be identical.

The kernel block times the *representative qaMKP regime* — the paper's
runtime-budgeted SA uses ~10 reads x 2 sweeps per shot, where the
per-sweep dispatch overhead the compiled tier eliminates dominates.

Emits ``BENCH_qamkp_sa_n<n>_k<k>.json`` (override with ``--out``).  Run
from the repo root::

    PYTHONPATH=src python benchmarks/perf/bench_anneal_engine.py --n 40 --reads 1024
    PYTHONPATH=src python benchmarks/perf/bench_anneal_engine.py \
        --n 100 --reads 16 --sweeps 2 --repeat 5
"""

from __future__ import annotations

import argparse
import json
import math
import platform
import random
import sys
import time
from collections import deque
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from repro.annealing import (
    Embedding,
    EmbeddingError,
    SimulatedAnnealingSampler,
    SimulatedQPUSampler,
    batched_tabu,
    chimera_graph,
    clique_embedding,
    suggest_chain_strength,
)
from repro.annealing.embedding import (
    _BFS_RADIUS,
    _chains_touch,
    _connect,
    _seed_qubit,
    _walk_back,
)
from repro.annealing.embedding_cm import find_embedding_cm
from repro.annealing.sampleset import Sample, SampleSet
from repro.core.qubo_formulation import build_mkp_qubo
from repro.datasets.paper_instances import ANNEALING_INSTANCES
from repro.graphs import gnm_random_graph
from repro.resilience import validate_sampleset

#: The QPU arm's cell: instance, k, shots, annealing time per shot.
QPU_INSTANCE, QPU_K, QPU_READS, QPU_DT_US = "D_20_100", 3, 1000, 1.0

# ----------------------------------------------------------------------
# Seed transcriptions (the pre-engine sampler, verbatim semantics)
# ----------------------------------------------------------------------


def _seed_schedule(h, jsym, num_sweeps):
    max_delta = max(float(np.max(np.abs(h) + np.sum(np.abs(jsym), axis=0))), 1e-9)
    coeffs = np.concatenate([np.abs(h[h != 0]), np.abs(jsym[jsym != 0])])
    min_coeff = float(coeffs.min()) if coeffs.size else 1.0
    hot = np.log(2.0) / max_delta
    cold = np.log(100.0) / max(min_coeff, 1e-9)
    if num_sweeps == 1:
        return np.array([cold])
    return np.geomspace(max(hot, 1e-12), max(cold, hot * 1.0001), num_sweeps)


def _seed_energies(bqm, states, order):
    """The seed ``BinaryQuadraticModel.energies``: a per-term Python loop."""
    index = {v: i for i, v in enumerate(order)}
    states = np.asarray(states, dtype=float)
    h = np.zeros(len(order))
    for v, bias in bqm.linear.items():
        h[index[v]] = bias
    energies = states @ h + bqm.offset
    for (u, v), bias in bqm.quadratic.items():
        energies += bias * states[:, index[u]] * states[:, index[v]]
    return energies


def seed_sa_sample(bqm, num_reads, num_sweeps, seed):
    """The seed ``SimulatedAnnealingSampler.sample``, end to end."""
    rng = np.random.default_rng(seed)
    bqm.require_finite()
    h, j, _offset, order = bqm.to_numpy()
    n = len(order)
    jsym = j + j.T
    states = rng.integers(0, 2, size=(num_reads, n)).astype(float)
    betas = _seed_schedule(h, jsym, num_sweeps)
    for beta in betas:
        for i in range(n):
            field = h[i] + states @ jsym[:, i]
            delta = (1.0 - 2.0 * states[:, i]) * field
            accept = (delta <= 0) | (
                rng.random(num_reads) < np.exp(-beta * np.clip(delta, 0, 700))
            )
            states[accept, i] = 1.0 - states[accept, i]
    energies = _seed_energies(bqm, states, order)
    assignments = [
        {v: int(states[r, c]) for c, v in enumerate(order)}
        for r in range(num_reads)
    ]
    result = SampleSet.from_states(assignments, energies.tolist())
    result.info.update({"num_reads": num_reads, "sweeps_per_read": num_sweeps})
    return result


def seed_tabu_best(bqm, initial, iterations, tenure):
    """Best energy of the seed single-trajectory tabu loop."""
    h, j, _offset, order = bqm.to_numpy()
    n = len(order)
    if tenure is None:
        tenure = min(20, n // 4 + 1)
    jsym = j + j.T
    x = np.array([initial[v] for v in order], dtype=float)
    field = h + jsym @ x
    delta = (1.0 - 2.0 * x) * field
    energy = float(bqm.energies(x[None, :], order)[0])
    best_energy = energy
    tabu_until = np.zeros(n, dtype=np.int64)
    for step in range(1, iterations + 1):
        allowed = (tabu_until < step) | (energy + delta < best_energy - 1e-12)
        if not np.any(allowed):
            allowed[:] = True
        scores = np.where(allowed, delta, np.inf)
        i = int(np.argmin(scores))
        sign = 1.0 - 2.0 * x[i]
        x[i] += sign
        energy += delta[i]
        delta[i] = -delta[i]
        shift = (1.0 - 2.0 * x) * jsym[i] * sign
        shift[i] = 0.0
        delta += shift
        tabu_until[i] = step + tenure
        if energy < best_energy - 1e-12:
            best_energy = energy
    return best_energy


# ----------------------------------------------------------------------
# Pre-matrix QPU path transcription (logical mode, default sampler)
# ----------------------------------------------------------------------


def _seed_bfs_from_chain(hardware, chain, used):
    dist, parent = {}, {}
    queue = deque()
    for q in chain:
        for w in hardware.adjacency[q]:
            if w not in used and w not in dist:
                dist[w] = 1
                parent[w] = None
                queue.append(w)
    while queue:
        q = queue.popleft()
        if dist[q] >= _BFS_RADIUS:
            continue
        for w in hardware.adjacency[q]:
            if w not in used and w not in dist:
                dist[w] = dist[q] + 1
                parent[w] = q
                queue.append(w)
    return dist, parent


def _seed_try_embed(variables, logical_edges, hardware, rng):
    """Greedy chain growth rooting each chain at the nearest BFS qubit."""
    neighbours = {v: set() for v in variables}
    for u, v in logical_edges:
        neighbours[u].add(v)
        neighbours[v].add(u)
    order = sorted(variables, key=lambda v: (-len(neighbours[v]), str(v)))
    if rng.random() < 0.5 and len(order) > 2:
        i, jdx = rng.randrange(len(order)), rng.randrange(len(order))
        order[i], order[jdx] = order[jdx], order[i]
    chains, used = {}, set()
    for var in order:
        placed = [w for w in sorted(neighbours[var], key=str) if w in chains]
        placed.sort(key=lambda w: len(chains[w]))
        if not placed:
            root = _seed_qubit(hardware, used, rng)
            chains[var] = {root}
            used.add(root)
            continue
        dist, parent = _seed_bfs_from_chain(hardware, chains[placed[0]], used)
        if not dist:
            raise EmbeddingError(f"chain of first neighbour of {var!r} is walled in")
        root = min(dist, key=dist.get)
        chain = {root} | _walk_back(root, parent)
        for w in placed[1:]:
            if _chains_touch(hardware, chain, chains[w]):
                continue
            path = _connect(hardware, chain, chains[w], used)
            if path is None:
                raise EmbeddingError(f"cannot route {var!r} to its neighbour {w!r}")
            chain |= path
        chains[var] = chain
        used.update(chain)
    return chains


def _seed_find_embedding(variables, logical_edges, hardware, seed, max_tries=5):
    rng = random.Random(seed)
    for _ in range(max_tries):
        try:
            chains = _seed_try_embed(
                list(variables), list(logical_edges), hardware, rng
            )
        except EmbeddingError:
            continue
        emb = Embedding({v: tuple(sorted(c)) for v, c in chains.items()}, hardware)
        emb.validate(logical_edges)
        return emb
    if len(variables) <= 60 or len(logical_edges) <= 6 * max(1, len(variables)):
        try:
            return find_embedding_cm(
                variables, logical_edges, hardware, seed=seed, max_tries=2
            )
        except EmbeddingError:
            pass
    emb = clique_embedding(variables, hardware)
    emb.validate(logical_edges)
    return emb


def _seed_validate(sampleset, bqm, energy_tol=1e-6):
    """Per-row validation: one dict walk and one ``bqm.energy`` per row."""
    report = {"total_rows": 0, "kept_rows": 0, "quarantined_rows": 0,
              "repaired_energies": 0, "reasons": {}}
    variables = bqm.variables
    kept = []
    for sample in sampleset.samples:
        report["total_rows"] += sample.num_occurrences
        defect = None
        for v in variables:
            if v not in sample.assignment:
                defect = "missing_variable"
                break
            x = sample.assignment[v]
            if isinstance(x, float) and not math.isfinite(x):
                defect = "non_finite_value"
                break
            if x not in (0, 1):
                defect = "non_binary_value"
                break
        if defect is not None:
            report["quarantined_rows"] += sample.num_occurrences
            report["reasons"][defect] = report["reasons"].get(defect, 0) + 1
            continue
        energy = sample.energy
        true_energy = bqm.energy(sample.assignment)
        if not math.isfinite(energy) or abs(energy - true_energy) > energy_tol:
            reason = ("non_finite_energy" if not math.isfinite(energy)
                      else "inconsistent_energy")
            report["repaired_energies"] += sample.num_occurrences
            report["reasons"][reason] = report["reasons"].get(reason, 0) + 1
            sample = Sample(sample.assignment, true_energy, sample.num_occurrences)
        kept.append(sample)
        report["kept_rows"] += sample.num_occurrences
    out = SampleSet(kept, dict(sampleset.info))
    if report["quarantined_rows"] or report["repaired_energies"]:
        out.info["validation"] = report
    return out, report


def seed_qpu_solve(bqm, num_reads, seed):
    """The pre-matrix logical-mode QPU call plus validation, end to end.

    Mirrors ``SimulatedQPUSampler().sample(..., mode="logical")`` with
    the default sampler parameters, rebuilding every chip it touches
    (``chimera_graph.__wrapped__`` is the un-memoised builder).
    """
    build_chimera = chimera_graph.__wrapped__
    rng = np.random.default_rng(seed)
    edges = bqm.interaction_graph_edges()
    try:
        emb = _seed_find_embedding(bqm.variables, edges, build_chimera(16), seed)
        expanded = False
    except EmbeddingError:
        m_needed = max(1, -(-len(bqm.variables) // 4))
        emb = clique_embedding(bqm.variables, build_chimera(m_needed, 4))
        expanded = True
    strength = suggest_chain_strength(bqm.linear, bqm.quadratic)
    sweeps = max(1, int(round(QPU_DT_US * 2.0)))
    order = bqm.variables
    break_probs = np.array(
        [1.0 - (1.0 - 0.03) ** (len(emb.chains[v]) - 1) for v in order]
    )
    raw = SimulatedAnnealingSampler().sample(
        bqm, num_reads=num_reads, num_sweeps=sweeps, seed=seed + 1
    )
    states = []
    for sample in raw.samples:
        for _ in range(sample.num_occurrences):
            states.append([sample.assignment[v] for v in order])
    states = np.array(states, dtype=float)
    breaks = rng.random(states.shape) < break_probs[None, :]
    random_bits = rng.integers(0, 2, size=states.shape)
    states = np.where(breaks, random_bits, states)
    energies = bqm.energies(states, order)
    assignments = [
        {v: int(states[r, c]) for c, v in enumerate(order)}
        for r in range(states.shape[0])
    ]
    result = SampleSet.from_states(assignments, energies.tolist())
    result.info["chain_break_fraction"] = float(breaks.mean())
    result.info.update({
        "annealing_time_us": QPU_DT_US,
        "num_reads": num_reads,
        "total_runtime_us": QPU_DT_US * num_reads,
        "sweeps_per_read": sweeps,
        "chain_strength": strength,
        "average_chain_length": emb.average_chain_length,
        "num_physical_qubits": emb.num_physical_qubits,
        "execution_mode": "logical",
        "hardware_expanded": expanded,
    })
    return _seed_validate(result, bqm)


def qpu_solve(bqm, num_reads, seed):
    """The current logical-mode QPU call plus validation (cold sampler)."""
    sampleset = SimulatedQPUSampler().sample(
        bqm, annealing_time_us=QPU_DT_US, num_reads=num_reads,
        seed=seed, mode="logical",
    )
    clean, report = validate_sampleset(sampleset, bqm)
    return clean, report.as_dict()


# ----------------------------------------------------------------------
# Harness
# ----------------------------------------------------------------------


def fingerprint(sampleset) -> list:
    return [
        (tuple(sorted(s.assignment.items())), s.energy, s.num_occurrences)
        for s in sampleset.samples
    ]


def qpu_fingerprint(result) -> tuple:
    """A validated QPU result exactly: rows in order with their variable
    order and value types, energy bits, counts, info and report."""
    clean, report = result
    rows = [
        (repr(dict(s.assignment)), float(s.energy).hex(), s.num_occurrences)
        for s in clean.samples
    ]
    return rows, repr(sorted(clean.info.items())), repr(report)


def _best_of(repeat, fn):
    """Best-of-``repeat`` wall clock; returns (seconds, last result)."""
    best = float("inf")
    result = None
    for _ in range(repeat):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=40, help="graph vertices (default 40)")
    parser.add_argument("--edges", type=int, default=None,
                        help="graph edges (default ~75%% density)")
    parser.add_argument("-k", type=int, default=2, help="plex parameter")
    parser.add_argument("--penalty", type=float, default=2.0, help="QUBO penalty weight")
    parser.add_argument("--graph-seed", type=int, default=7)
    parser.add_argument("--sample-seed", type=int, default=11)
    parser.add_argument("--reads", type=int, default=1024, help="SA num_reads")
    parser.add_argument("--sweeps", type=int, default=2,
                        help="SA num_sweeps (the paper's fixed small sweep count)")
    parser.add_argument("--repeat", type=int, default=3, help="timing repeats (min taken)")
    parser.add_argument("--workers", type=int, default=None,
                        help="engine shard width (also applied to the traced run)")
    parser.add_argument("--tabu-restarts", type=int, default=8)
    parser.add_argument("--tabu-iterations", type=int, default=200)
    parser.add_argument("--min-speedup", type=float, default=5.0,
                        help="required seed/engine SA wall-clock ratio (default 5.0)")
    parser.add_argument(
        "--min-kernel-speedup", type=float, default=3.0,
        help="required compiled-vs-numpy end-to-end SA speedup when a "
        "compiled kernel backend is available (default 3.0)",
    )
    parser.add_argument(
        "--baseline-s", type=float, default=None,
        help="seed-commit wall-clock (measured there with --legacy), recorded as-is",
    )
    parser.add_argument(
        "--legacy", action="store_true",
        help="time the embedded seed transcription only and print it",
    )
    parser.add_argument(
        "--trace", type=Path, default=None, metavar="PATH",
        help="also time a traced engine run, write its run-ledger JSON to PATH, "
        "and fail on ledger drift or excessive tracing overhead",
    )
    parser.add_argument(
        "--trace-overhead-limit", type=float, default=0.10,
        help="max allowed (traced - untraced) / untraced (default 0.10)",
    )
    parser.add_argument("--out", type=Path, default=None, help="output JSON path")
    args = parser.parse_args(argv)

    edges = (
        args.edges
        if args.edges is not None
        else int(0.75 * args.n * (args.n - 1) / 2)
    )
    graph = gnm_random_graph(args.n, edges, seed=args.graph_seed)
    bqm = build_mkp_qubo(graph, args.k, args.penalty).bqm

    if args.legacy:
        seed_s, ss = _best_of(
            args.repeat,
            lambda: seed_sa_sample(bqm, args.reads, args.sweeps, args.sample_seed),
        )
        print(f"legacy SA n={args.n} vars={bqm.num_variables} reads={args.reads} "
              f"sweeps={args.sweeps}: {seed_s:.3f}s best={ss.lowest_energy}")
        return 0

    sampler = SimulatedAnnealingSampler()

    def run_engine(tracer=None):
        return sampler.sample(
            bqm, num_reads=args.reads, num_sweeps=args.sweeps,
            seed=args.sample_seed, workers=args.workers, tracer=tracer,
        )

    # Warm the CSR / sweep-plan caches outside the timed region, same as
    # long-running experiments would amortise them.
    engine_ss = run_engine()
    engine_s, engine_ss = _best_of(args.repeat, run_engine)
    seed_s, seed_ss = _best_of(
        args.repeat,
        lambda: seed_sa_sample(bqm, args.reads, args.sweeps, args.sample_seed),
    )

    identical = fingerprint(seed_ss) == fingerprint(engine_ss)
    speedup = seed_s / engine_s

    # Tabu: same initial states, same flip budget, equal-or-better best.
    init_rng = np.random.default_rng(args.sample_seed)
    variables = sorted(bqm.variables, key=str)
    inits = [
        {v: int(init_rng.integers(0, 2)) for v in variables}
        for _ in range(args.tabu_restarts)
    ]
    batched_s, batched = _best_of(
        1,
        lambda: batched_tabu(
            bqm, num_restarts=args.tabu_restarts, initial_states=inits,
            iterations=args.tabu_iterations,
        ),
    )
    seed_tabu_s, seed_best = _best_of(
        1,
        lambda: min(
            seed_tabu_best(bqm, init, args.tabu_iterations, None) for init in inits
        ),
    )
    tabu_ok = bool(batched.best_energy <= seed_best + 1e-9)

    failures: list[str] = []

    # ------------------------------------------------------------------
    # Kernel tier comparison: every available backend, fingerprint-gated.
    # ------------------------------------------------------------------
    from repro.perf.kernels import available_backends

    backends = available_backends()
    kernel_block: dict = {
        "available": backends,
        "min_speedup": args.min_kernel_speedup,
        "tiers": {},
    }
    kernel_ref = None
    for name in backends:

        def run_kernel(name=name):
            return sampler.sample(
                bqm, num_reads=args.reads, num_sweeps=args.sweeps,
                seed=args.sample_seed, kernel=name,
            )

        run_kernel()  # warm the backend (compile/self-check outside timing)
        tier_s, tier_ss = _best_of(args.repeat, run_kernel)
        kernel_block["tiers"][name] = {
            "seconds": round(tier_s, 4),
            "best_energy": tier_ss.lowest_energy,
        }
        tier_fp = fingerprint(tier_ss)
        if name == "numpy":
            kernel_ref = tier_fp
        elif tier_fp != kernel_ref:
            failures.append(f"kernel {name!r} sampleset diverged from numpy")
    for name, tier in kernel_block["tiers"].items():
        tier["speedup_vs_numpy"] = round(
            kernel_block["tiers"]["numpy"]["seconds"] / tier["seconds"], 2
        )
    compiled = [name for name in backends if name != "numpy"]
    if compiled:
        best_name = max(
            compiled,
            key=lambda name: kernel_block["tiers"][name]["speedup_vs_numpy"],
        )
        kernel_block["best_compiled"] = best_name
        best_speedup = kernel_block["tiers"][best_name]["speedup_vs_numpy"]
        if best_speedup < args.min_kernel_speedup:
            failures.append(
                f"compiled SA speedup {best_speedup:.2f}x below required "
                f"{args.min_kernel_speedup:.2f}x"
            )
    if not identical:
        failures.append("engine sampleset diverged from the seed transcription")
    if speedup < args.min_speedup:
        failures.append(
            f"SA speedup {speedup:.2f}x below required {args.min_speedup:.2f}x"
        )
    if not tabu_ok:
        failures.append(
            f"batched tabu best {batched.best_energy} worse than seed {seed_best}"
        )

    # QPU arm: cold logical-mode solve vs the pre-matrix transcription.
    qpu_bqm = build_mkp_qubo(ANNEALING_INSTANCES[QPU_INSTANCE].build(), QPU_K).bqm
    qpu_s, qpu_result = _best_of(
        args.repeat, lambda: qpu_solve(qpu_bqm, QPU_READS, args.sample_seed)
    )
    seed_qpu_s, seed_qpu_result = _best_of(
        args.repeat, lambda: seed_qpu_solve(qpu_bqm, QPU_READS, args.sample_seed)
    )
    qpu_identical = qpu_fingerprint(qpu_result) == qpu_fingerprint(seed_qpu_result)
    if not qpu_identical:
        failures.append("QPU sampleset diverged from the pre-matrix transcription")
    qpu_clean, qpu_report = qpu_result
    qpu_block = {
        "instance": QPU_INSTANCE,
        "k": QPU_K,
        "num_variables": qpu_bqm.num_variables,
        "mode": "logical",
        "reads": QPU_READS,
        "annealing_time_us": QPU_DT_US,
        "current_s": round(qpu_s, 4),
        "seed_s": round(seed_qpu_s, 4),
        "speedup": round(seed_qpu_s / qpu_s, 2),
        "identical_samplesets": qpu_identical,
        "best_energy": qpu_clean.lowest_energy,
        "unique_rows": len(qpu_clean.samples),
        "num_physical_qubits": qpu_clean.info["num_physical_qubits"],
        "hardware_expanded": qpu_clean.info["hardware_expanded"],
        "validation_rows": qpu_report["total_rows"],
    }

    trace_block = None
    if args.trace is not None:
        from repro.obs import RunLedger, Tracer

        tracer_box: list = []

        def run_traced():
            tracer = Tracer()
            tracer_box.append(tracer)
            return run_engine(tracer=tracer)

        traced_s, traced_ss = _best_of(args.repeat, run_traced)
        tracer = tracer_box[-1]
        if fingerprint(traced_ss) != fingerprint(engine_ss):
            failures.append("traced run diverged from untraced run")
        ledger = RunLedger.from_tracer(
            tracer,
            meta={
                "bench": "qamkp_sa_engine",
                "n": args.n, "m": edges, "k": args.k,
                "graph_seed": args.graph_seed, "sample_seed": args.sample_seed,
                "reads": args.reads, "sweeps": args.sweeps,
            },
        )
        drift = ledger.verify(raise_on_drift=False)
        for record in drift:
            failures.append(f"ledger drift: {record}")
        if ledger.total("anneal_flips") != traced_ss.info["num_flips"]:
            failures.append("ledger anneal_flips does not reconcile with info")
        if ledger.total("anneal_sweeps") != traced_ss.info["sweeps_per_read"]:
            failures.append("ledger anneal_sweeps does not reconcile with info")
        ledger.to_json(args.trace)
        overhead = traced_s / engine_s - 1.0
        if overhead > args.trace_overhead_limit:
            failures.append(
                f"tracing overhead {overhead:.1%} exceeds "
                f"{args.trace_overhead_limit:.0%}"
            )
        trace_block = {
            "ledger": str(args.trace),
            "traced_s": round(traced_s, 4),
            "overhead_fraction": round(overhead, 4),
            "overhead_limit": args.trace_overhead_limit,
            "drift_records": len(drift),
            "verified": not drift,
        }

    report = {
        "bench": "qamkp_sa_engine",
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "host": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
        },
        "instance": {
            "generator": "gnm_random_graph",
            "n": args.n,
            "m": edges,
            "k": args.k,
            "penalty": args.penalty,
            "num_variables": bqm.num_variables,
            "num_interactions": bqm.num_interactions,
            "graph_seed": args.graph_seed,
            "sample_seed": args.sample_seed,
            "reads": args.reads,
            "sweeps": args.sweeps,
        },
        "sa": {
            "engine_s": round(engine_s, 4),
            "seed_s": round(seed_s, 4),
            "seed_baseline_s": args.baseline_s,
            "speedup": round(speedup, 2),
            "min_speedup": args.min_speedup,
            "speedup_vs_baseline": (
                round(args.baseline_s / engine_s, 2) if args.baseline_s else None
            ),
            "identical_samplesets": identical,
            "best_energy": engine_ss.lowest_energy,
            "num_flips": engine_ss.info["num_flips"],
        },
        "tabu": {
            "restarts": args.tabu_restarts,
            "iterations": args.tabu_iterations,
            "flip_budget": args.tabu_restarts * args.tabu_iterations,
            "batched_s": round(batched_s, 4),
            "seed_s": round(seed_tabu_s, 4),
            "batched_best": float(batched.best_energy),
            "seed_best": float(seed_best),
            "equal_or_better": tabu_ok,
        },
        "kernels": kernel_block,
        "qpu": qpu_block,
        "trace": trace_block,
    }

    out = args.out or Path(__file__).parent / f"BENCH_qamkp_sa_n{args.n}_k{args.k}.json"
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps({"sa": report["sa"], "tabu": report["tabu"]}, indent=2))
    print(f"identical={identical} speedup={speedup:.2f}x tabu_ok={tabu_ok} -> {out}")
    print(
        f"qpu: identical={qpu_identical} speedup={qpu_block['speedup']:.2f}x "
        f"({seed_qpu_s:.3f}s -> {qpu_s:.3f}s)"
    )
    if trace_block is not None:
        print(
            f"trace: verified={trace_block['verified']} "
            f"overhead={trace_block['overhead_fraction']:.1%} "
            f"-> {trace_block['ledger']}"
        )

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
