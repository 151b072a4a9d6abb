"""Command-line interface: ``qmkp`` (or ``python -m repro``).

Subcommands:

* ``solve``   — find a maximum k-plex with any of the implemented
  solvers (gate-based qmkp, annealing qamkp variants, classical exact
  branch-and-search, brute force);
* ``check``   — verify whether a vertex set is a k-plex of a graph;
* ``qubo``    — print statistics of the MKP QUBO formulation;
* ``oracle``  — print the qTKP oracle's qubit/gate budget per component;
* ``enumerate`` — list the maximal k-plexes (community detection);
* ``relax``   — maximum n-clan / n-club via the quantum subset search;
* ``draw``    — render the qTKP checking circuit as ASCII art;
* ``serve``   — run the supervised solver service behind its HTTP/SSE
  gateway;
* ``submit``  — send a solve request to a gateway (and optionally wait);
* ``watch``   — stream an edit script through an incremental re-solve
  session (dynamic graphs).

Graphs are read as edge-list files (``u v`` per line, ``#`` comments);
edit scripts as ``add U V`` / ``del U V`` / ``addv [LABEL]`` lines in
the graph file's label space (see :mod:`repro.dynamic.edits`).
"""

from __future__ import annotations

import argparse
import sys

from .analysis import format_table
from .core import build_mkp_qubo, qamkp, qmkp
from .core.oracle import KCplexOracle
from .graphs import read_edge_list
from .grover import PhaseOracleGrover
from .kplex import is_kplex, maximum_kplex, maximum_kplex_bruteforce

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qmkp",
        description="Quantum algorithms for the Maximum k-Plex Problem",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="find a maximum k-plex")
    solve.add_argument("graph", help="edge-list file")
    solve.add_argument("-k", type=int, default=2, help="plex parameter (default 2)")
    solve.add_argument(
        "--solver",
        choices=["qmkp", "qamkp-qpu", "qamkp-sa", "qamkp-hybrid", "bs", "bruteforce"],
        default="bs",
        help="algorithm (default: classical branch-and-search)",
    )
    solve.add_argument(
        "--runtime-us", type=float, default=1000.0,
        help="runtime budget for annealing solvers (default 1000)",
    )
    solve.add_argument("--seed", type=int, default=None, help="random seed")
    solve.add_argument(
        "--no-cache", action="store_true",
        help="qmkp: disable the cross-threshold marked-set cache "
        "(forces the per-probe predicate scan)",
    )
    solve.add_argument(
        "--anneal-workers", type=int, default=None,
        help="qamkp-sa: process-pool width for sharding SA reads "
        "(byte-identical to the single-process run)",
    )
    solve.add_argument(
        "--retries", type=int, default=0,
        help="qamkp-qpu: retries with backoff, debited from --runtime-us",
    )
    solve.add_argument(
        "--fallback", action="store_true",
        help="qamkp-qpu: degrade through sa -> tabu -> greedy on failure",
    )
    solve.add_argument(
        "--inject-faults", metavar="SPEC", default=None,
        help="qamkp-qpu: inject faults, e.g. 'transient=2,storm=0.5,seed=7'",
    )
    solve.add_argument(
        "--deadline", type=float, default=None, metavar="GATE_UNITS",
        help="qmkp: gate-unit budget shared across all threshold probes; "
        "on expiry the search degrades to the classical branch search",
    )
    solve.add_argument(
        "--checkpoint", metavar="PATH", default=None,
        help="qmkp: write-ahead probe journal; if PATH already exists the "
        "run resumes from it (bit-identical to the uninterrupted run)",
    )
    solve.add_argument(
        "--inject-gate-faults", metavar="SPEC", default=None,
        help="qmkp: inject gate-stack faults, e.g. "
        "'transient=2,readout=0.5,depolarize=0.05,seed=7'; corrupted "
        "samples are rejected by the self-verifying measurement loop",
    )
    solve.add_argument(
        "--kernel", choices=["auto", "numpy", "cext"], default=None,
        help="compiled-kernel backend for the k-plex enumeration and SA "
        "inner loops (default: the REPRO_KERNEL env var, else auto = "
        "fastest available; all backends are byte-identical)",
    )
    solve.add_argument(
        "--trace", metavar="PATH", default=None,
        help="trace the solve and write the run-ledger JSON (span tree, "
        "metrics, reconciled totals) to PATH; exits 3 on ledger drift",
    )
    solve.add_argument(
        "--metrics", choices=["json", "prom"], default=None,
        help="print the metric registry to stdout after the solve "
        "(json, or Prometheus text exposition)",
    )

    check = sub.add_parser("check", help="verify a k-plex")
    check.add_argument("graph", help="edge-list file")
    check.add_argument("-k", type=int, default=2)
    check.add_argument("vertices", nargs="+", type=int, help="vertex ids (file labels)")

    qubo = sub.add_parser("qubo", help="QUBO formulation statistics")
    qubo.add_argument("graph", help="edge-list file")
    qubo.add_argument("-k", type=int, default=3)
    qubo.add_argument("-R", "--penalty", type=float, default=2.0)

    oracle = sub.add_parser("oracle", help="qTKP oracle resource budget")
    oracle.add_argument("graph", help="edge-list file")
    oracle.add_argument("-k", type=int, default=2)
    oracle.add_argument("-T", "--threshold", type=int, default=1)

    enum = sub.add_parser("enumerate", help="list maximal k-plexes")
    enum.add_argument("graph", help="edge-list file")
    enum.add_argument("-k", type=int, default=2)
    enum.add_argument("--min-size", type=int, default=2)
    enum.add_argument("--limit", type=int, default=50, help="max results")

    relax = sub.add_parser("relax", help="maximum n-clan / n-club")
    relax.add_argument("graph", help="edge-list file")
    relax.add_argument("--model", choices=["clan", "club"], default="club")
    relax.add_argument("-n", type=int, default=2, help="distance bound")
    relax.add_argument("--seed", type=int, default=None)

    draw = sub.add_parser("draw", help="draw the qTKP checking circuit")
    draw.add_argument("graph", help="edge-list file")
    draw.add_argument("-k", type=int, default=2)
    draw.add_argument("-T", "--threshold", type=int, default=1)

    serve = sub.add_parser(
        "serve", help="run the supervised solver service behind its "
        "HTTP/SSE gateway"
    )
    serve.add_argument(
        "workdir",
        help="service workdir for checkpoints, receipts and event journals "
        "(created if missing; suspended jobs resume from it on restart)",
    )
    serve.add_argument(
        "--http", required=True, metavar="HOST:PORT",
        help="gateway address (PORT 0 picks a free port; the bound address "
        "is printed on startup)",
    )
    serve.add_argument(
        "--workers", type=int, default=2, help="worker pool width (default 2)"
    )
    serve.add_argument(
        "--queue-capacity", type=int, default=8,
        help="bounded fresh-job queue depth (default 8); submissions "
        "beyond it are rejected with a typed backpressure error",
    )
    serve.add_argument(
        "--max-resumes", type=int, default=3,
        help="crash-resume budget per job before it settles failed",
    )
    serve.add_argument(
        "--tenant-budget", action="append", default=None,
        metavar="TENANT=GATE_UNITS",
        help="per-tenant admission pool, repeatable "
        "(e.g. --tenant-budget acme=50000)",
    )

    submit = sub.add_parser(
        "submit", help="submit a solve request to a service gateway"
    )
    submit.add_argument("graph", help="edge-list file")
    submit.add_argument(
        "--url", required=True, metavar="http://HOST:PORT",
        help="gateway of a running 'qmkp serve'; submission is idempotent "
        "and the --wait stream reconnect-resumable",
    )
    submit.add_argument("-k", type=int, default=2)
    submit.add_argument(
        "--solver",
        choices=["qmkp", "qamkp-qpu", "qamkp-sa", "qamkp-hybrid", "bs"],
        default="qmkp",
    )
    submit.add_argument("--seed", type=int, default=None)
    submit.add_argument("--tenant", default="default")
    submit.add_argument(
        "--name", default=None,
        help="request name (prefixes the job's checkpoint and receipt "
        "file names)",
    )
    submit.add_argument(
        "--deadline", type=float, default=None, metavar="GATE_UNITS",
        help="qmkp: per-job gate-unit deadline budget",
    )
    submit.add_argument(
        "--runtime-us", type=float, default=1000.0,
        help="annealing backends' runtime budget",
    )
    submit.add_argument(
        "--wait", action="store_true",
        help="stream incumbents until the job settles and print the answer",
    )
    submit.add_argument(
        "--timeout", type=float, default=120.0,
        help="per-request socket timeout in seconds (default 120)",
    )
    submit.add_argument(
        "--edits", metavar="PATH", default=None,
        help="edit-script file: submit a dynamic mutation job (qmkp "
        "only) that re-solves incrementally after every edit",
    )

    watch = sub.add_parser(
        "watch", help="incremental re-solves over a graph edit stream"
    )
    watch.add_argument("graph", help="edge-list file (the initial graph)")
    watch.add_argument(
        "edits",
        help="edit-script file: 'add U V' / 'del U V' / 'addv [LABEL]' "
        "per line, in the graph file's vertex labels",
    )
    watch.add_argument("-k", type=int, default=2, help="plex parameter (default 2)")
    watch.add_argument(
        "--solver", choices=["qmkp", "bs", "qamkp-sa"], default="qmkp",
        help="per-step solver (default qmkp)",
    )
    watch.add_argument(
        "--profile", choices=["exact", "warm"], default="exact",
        help="reuse profile: 'exact' (every step byte-identical to a "
        "cold solve); 'warm' adds incumbent/sampleset carry-over (same "
        "optimum size, different randomness)",
    )
    watch.add_argument(
        "--seed", type=int, default=0,
        help="session seed; step i solves with default_rng([seed, i])",
    )
    watch.add_argument(
        "--every", type=int, default=1, metavar="N",
        help="re-solve after every N edits (default 1)",
    )
    watch.add_argument(
        "--check", action="store_true",
        help="cold-solve every step and compare against the incremental "
        "result; exits 4 on any disagreement",
    )
    watch.add_argument(
        "--checkpoint-dir", metavar="DIR", default=None,
        help="qmkp: per-step write-ahead journals (stepNNNN.wal) under "
        "DIR; an interrupted stream resumes bit-identically",
    )
    watch.add_argument(
        "--runtime-us", type=float, default=1000.0,
        help="qamkp-sa: per-step runtime budget (default 1000)",
    )
    watch.add_argument(
        "--kernel", choices=["auto", "numpy", "cext"], default=None,
        help="kernel backend for enumerations/anneals",
    )
    watch.add_argument(
        "--out", metavar="PATH", default=None,
        help="write the per-step results as JSON to PATH",
    )
    watch.add_argument(
        "--trace", metavar="PATH", default=None,
        help="write the session run-ledger JSON to PATH; exits 3 on "
        "ledger drift (warm-start claims are reconciled per step)",
    )
    watch.add_argument(
        "--metrics", choices=["json", "prom"], default=None,
        help="print the metric registry after the stream",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # The service commands manage their own graph I/O (the worker child
    # reads the graph; the parent never needs it in memory).
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "submit":
        return _cmd_submit(args)
    try:
        graph, labels = read_edge_list(args.graph)
    except OSError as exc:
        print(f"error: cannot read {args.graph}: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {args.graph}: {exc}", file=sys.stderr)
        return 2
    if args.command == "solve":
        return _cmd_solve(args, graph, labels)
    if args.command == "check":
        return _cmd_check(args, graph, labels)
    if args.command == "qubo":
        return _cmd_qubo(args, graph)
    if args.command == "oracle":
        return _cmd_oracle(args, graph)
    if args.command == "enumerate":
        return _cmd_enumerate(args, graph, labels)
    if args.command == "relax":
        return _cmd_relax(args, graph, labels)
    if args.command == "watch":
        return _cmd_watch(args, graph, labels)
    return _cmd_draw(args, graph)


def _translate(subset, labels) -> list[object]:
    return sorted(labels[v] for v in subset)


def _cmd_solve(args, graph, labels) -> int:
    import numpy as np

    if args.k < 1:
        print(f"error: k must be >= 1, got {args.k}", file=sys.stderr)
        return 2
    # The enumeration shares the engine's ceiling (MAX_VERTICES ==
    # MAX_QUBITS); lifting it needs a measurement contract above 2^53
    # states and a marked-count admission budget.
    limit = PhaseOracleGrover.MAX_QUBITS
    if args.solver == "qmkp" and graph.num_vertices > limit:
        print(
            f"error: --solver qmkp supports n <= {limit} until its "
            f"measurement and marked-set memory are bounded for wider "
            f"graphs; this graph has n = {graph.num_vertices}",
            file=sys.stderr,
        )
        return 2
    if args.solver != "qmkp" and args.no_cache:
        print("error: --no-cache requires --solver qmkp", file=sys.stderr)
        return 2
    if args.solver != "qmkp" and (
        args.deadline is not None
        or args.checkpoint is not None
        or args.inject_gate_faults is not None
    ):
        print(
            "error: --deadline/--checkpoint/--inject-gate-faults require "
            "--solver qmkp",
            file=sys.stderr,
        )
        return 2
    if args.anneal_workers is not None and args.solver != "qamkp-sa":
        print(
            "error: --anneal-workers requires --solver qamkp-sa",
            file=sys.stderr,
        )
        return 2
    from .perf.kernels import resolve as resolve_kernel

    try:
        # --kernel is checked by argparse; this catches REPRO_KERNEL.
        resolve_kernel(args.kernel)
    except ValueError as exc:
        print(f"error: REPRO_KERNEL: {exc}", file=sys.stderr)
        return 2
    tracer = None
    if args.trace or args.metrics:
        from .obs import Tracer

        tracer = Tracer()
    if args.solver == "bruteforce":
        subset = maximum_kplex_bruteforce(graph, args.k)
    elif args.solver == "bs":
        subset = maximum_kplex(graph, args.k).subset
    elif args.solver == "qmkp":
        from .resilience import CheckpointError, CheckpointJournal, GateFaultPlan

        rng = np.random.default_rng(args.seed)
        # resumable() treats a zero-length or torn-header journal — a
        # crash before the first fsync completed — as "nothing to
        # resume", so the run starts fresh instead of exiting 2.
        resume = (
            args.checkpoint
            if args.checkpoint is not None
            and CheckpointJournal.resumable(args.checkpoint)
            else None
        )
        try:
            gate_plan = (
                GateFaultPlan.parse(args.inject_gate_faults)
                if args.inject_gate_faults
                else None
            )
        except ValueError as exc:
            print(f"error: --inject-gate-faults: {exc}", file=sys.stderr)
            return 2
        try:
            result = qmkp(
                graph, args.k, rng=rng,
                use_cache=not args.no_cache,
                kernel=args.kernel,
                tracer=tracer,
                deadline=args.deadline,
                checkpoint=args.checkpoint,
                resume=resume,
                gate_faults=gate_plan,
            )
        except CheckpointError as exc:
            print(f"error: checkpoint: {exc}", file=sys.stderr)
            return 2
        except KeyboardInterrupt:
            if args.checkpoint is None:
                raise
            # Every completed probe is already fsynced in the journal;
            # nothing to flush — just tell the operator how to pick the
            # run back up and exit with the conventional SIGINT code.
            print(
                f"interrupted; resumable at {args.checkpoint}",
                file=sys.stderr,
            )
            return 130
        subset = result.subset
        if result.resumed_probes:
            print(
                f"resumed {result.resumed_probes} probe(s) from "
                f"{args.checkpoint}"
            )
        if result.degraded_to:
            print(
                f"deadline expired after {result.gate_units} gate units; "
                f"degraded to {result.degraded_to}"
            )
        if result.verification is not None:
            v = result.verification
            print(
                f"gate faults injected: {len(v['faults'])} | "
                f"measurements verified: {v['verified']}/{v['measurements']} | "
                f"false positives rejected: {v['false_positives']} | "
                f"transient retries: {v['transient_retries']}"
            )
    else:
        from .annealing import EmbeddingError, QPURuntimeExceeded
        from .resilience import BudgetExhausted, CircuitOpenError

        backend = args.solver.split("-", 1)[1]
        if args.inject_faults and backend != "qpu":
            print(
                "error: --inject-faults requires --solver qamkp-qpu",
                file=sys.stderr,
            )
            return 2
        try:
            result = qamkp(
                graph, args.k, runtime_us=args.runtime_us,
                solver=backend, seed=args.seed,
                retries=args.retries, fallback=args.fallback,
                fault_plan=args.inject_faults,
                sa_workers=args.anneal_workers,
                kernel=args.kernel,
                tracer=tracer,
            )
        except (
            EmbeddingError, QPURuntimeExceeded, BudgetExhausted, CircuitOpenError,
        ) as exc:
            print(
                f"error: {backend} solve failed ({exc}); "
                "re-run with --fallback to degrade to a classical backend",
                file=sys.stderr,
            )
            return 2
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        subset = result.repaired
        print(f"objective cost: {result.cost}")
        if not is_kplex(graph, subset, args.k):
            print(
                f"warning: repair produced an infeasible set of size "
                f"{len(subset)}; result is not a valid {args.k}-plex",
                file=sys.stderr,
            )
        resilience = result.info.get("resilience")
        if resilience:
            print(
                f"backend: {result.info.get('backend_used', backend)} | "
                f"attempts: {len(resilience['attempts'])} | "
                f"faults: {len(resilience['faults'])} | "
                f"charged: {resilience['charged_us']:.0f}/"
                f"{resilience['budget_us']:.0f} us"
            )
    print(f"maximum {args.k}-plex size: {len(subset)}")
    print(f"vertices: {_translate(subset, labels)}")
    if tracer is not None:
        return _emit_observability(args, tracer)
    return 0


def _emit_observability(args, tracer) -> int:
    """Write the ledger / print metrics for a traced solve; 3 on drift.

    The drift check is intentionally not best-effort: a traced CLI run
    that fails to reconcile exits nonzero so CI catches accounting bugs.
    """
    import json

    from .obs import RunLedger

    ledger = RunLedger.from_tracer(
        tracer,
        meta={
            "command": args.command,
            "solver": args.solver,
            "graph": args.graph,
            "k": args.k,
        },
    )
    drift = ledger.verify(raise_on_drift=False)
    if args.trace:
        ledger.to_json(args.trace)
    if args.metrics == "json":
        print(json.dumps(tracer.registry.as_dict(), indent=2, sort_keys=True))
    elif args.metrics == "prom":
        print(tracer.registry.render_prometheus(), end="")
    if drift:
        for record in drift:
            print(f"error: ledger drift: {record}", file=sys.stderr)
        return 3
    return 0


def _cmd_check(args, graph, labels) -> int:
    inverse = {label: v for v, label in labels.items()}
    try:
        subset = {inverse[v] for v in args.vertices}
    except KeyError as exc:
        print(f"unknown vertex {exc}", file=sys.stderr)
        return 2
    verdict = is_kplex(graph, subset, args.k)
    print(f"{sorted(args.vertices)} is{'' if verdict else ' NOT'} a {args.k}-plex")
    return 0 if verdict else 1


def _cmd_qubo(args, graph) -> int:
    model = build_mkp_qubo(graph, args.k, args.penalty)
    rows = [
        ("vertices", graph.num_vertices),
        ("edges", graph.num_edges),
        ("vertex variables", graph.num_vertices),
        ("slack variables", model.num_slack_variables),
        ("total variables", model.num_variables),
        ("quadratic terms", model.bqm.num_interactions),
        ("penalty R", args.penalty),
    ]
    print(format_table(["quantity", "value"], rows, title="MKP QUBO statistics"))
    return 0


def _cmd_oracle(args, graph) -> int:
    oracle = KCplexOracle(graph.complement(), args.k, args.threshold)
    costs = oracle.component_costs()
    rows = [
        ("qubits (U_check)", oracle.num_qubits),
        ("encode gates", costs.encode),
        ("degree count gates", costs.degree_count),
        ("degree compare gates", costs.degree_compare),
        ("size check gates", costs.size_check),
        ("total per oracle call", costs.total),
    ]
    print(format_table(["quantity", "value"], rows, title="qTKP oracle budget"))
    return 0


def _cmd_enumerate(args, graph, labels) -> int:
    from .kplex import enumerate_maximal_kplexes

    count = 0
    for plex in enumerate_maximal_kplexes(
        graph, args.k, min_size=args.min_size, max_results=args.limit
    ):
        count += 1
        print(f"size {len(plex)}: {_translate(plex, labels)}")
    print(f"{count} maximal {args.k}-plex(es) of size >= {args.min_size}")
    return 0


def _cmd_relax(args, graph, labels) -> int:
    import numpy as np

    from .core import maximum_nclan_quantum, maximum_nclub_quantum

    rng = np.random.default_rng(args.seed)
    search = maximum_nclan_quantum if args.model == "clan" else maximum_nclub_quantum
    result = search(graph, args.n, rng=rng)
    print(f"maximum {args.n}-{args.model} size: {result.size}")
    print(f"vertices: {_translate(result.subset, labels)}")
    print(f"oracle calls: {result.oracle_calls}")
    return 0


def _cmd_watch(args, graph, labels) -> int:
    import json

    import numpy as np

    from .dynamic import IncrementalSolver, apply_labelled_edit, read_edits

    if args.every < 1:
        print(f"error: --every must be >= 1, got {args.every}", file=sys.stderr)
        return 2
    if args.check and args.solver == "qamkp-sa" and args.profile == "warm":
        print(
            "error: --check cannot cold-verify warm-started SA (the warm "
            "start legitimately changes the sampleset); use --profile "
            "exact or drop --check",
            file=sys.stderr,
        )
        return 2
    try:
        edits = read_edits(args.edits)
    except OSError as exc:
        print(f"error: cannot read {args.edits}: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {args.edits}: {exc}", file=sys.stderr)
        return 2
    tracer = None
    if args.trace or args.metrics:
        from .obs import Tracer

        tracer = Tracer()
    labels = dict(labels)
    session = IncrementalSolver(
        graph, args.k, solver=args.solver, profile=args.profile,
        seed=args.seed, runtime_us=args.runtime_us,
        kernel=args.kernel, tracer=tracer, checkpoint_dir=args.checkpoint_dir,
    )
    steps: list[dict[str, object]] = []
    mismatches = 0

    def cold_check(step) -> tuple[bool, str]:
        """Re-solve the step's graph cold and compare; True = agreement."""
        snapshot = session.graph.snapshot()
        if args.solver == "qmkp":
            cold = qmkp(
                snapshot, args.k, rng=np.random.default_rng([args.seed, step.step]),
                kernel=args.kernel,
            )
            if args.profile == "exact":
                same = (
                    cold.subset == step.subset
                    and cold.oracle_calls == step.result.oracle_calls
                    and cold.gate_units == step.result.gate_units
                    and cold.progression == step.result.progression
                )
                return same, (
                    f"cold size={len(cold.subset)} calls={cold.oracle_calls}"
                )
            return len(cold.subset) == step.size, f"cold size={len(cold.subset)}"
        if args.solver == "bs":
            cold = maximum_kplex(snapshot, args.k)
            return len(cold.subset) == step.size, f"cold size={len(cold.subset)}"
        cold = qamkp(
            snapshot, args.k, solver="sa", runtime_us=args.runtime_us,
            seed=session.step_sa_seed(step.step), kernel=args.kernel,
        )
        return cold.repaired == step.subset, f"cold size={len(cold.repaired)}"

    def run_step() -> None:
        nonlocal mismatches
        step = session.resolve()
        line = (
            f"step {step.step}"
            + (f" [{'; '.join(e.as_line() for e in step.edits)}]" if step.edits else "")
            + f": size={step.size} vertices={_translate(step.subset, labels)}"
        )
        if step.warm_start_hits:
            line += " warm"
        if step.resumed_probes:
            line += f" resumed={step.resumed_probes}"
        record: dict[str, object] = {
            "step": step.step,
            "edits": [e.as_line() for e in step.edits],
            "fingerprint": step.fingerprint,
            "size": step.size,
            "vertices": _translate(step.subset, labels),
            "warm_start_hits": step.warm_start_hits,
            "resumed_probes": step.resumed_probes,
        }
        if args.solver == "qmkp":
            record["oracle_calls"] = step.result.oracle_calls
            record["gate_units"] = step.result.gate_units
        if args.check:
            same, detail = cold_check(step)
            record["check"] = "ok" if same else "MISMATCH"
            if not same:
                mismatches += 1
                line += f"  << MISMATCH vs cold solve ({detail})"
            else:
                line += "  (check ok)"
        print(line)
        steps.append(record)

    try:
        run_step()  # step 0: the unedited graph, before any mutation
        for start in range(0, len(edits), args.every):
            for edit in edits[start:start + args.every]:
                apply_labelled_edit(session, edit, labels)
            run_step()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.out:
        doc = {
            "graph": args.graph,
            "edits": args.edits,
            "k": args.k,
            "solver": args.solver,
            "profile": args.profile,
            "seed": args.seed,
            "steps": steps,
        }
        with open(args.out, "w") as handle:
            json.dump(doc, handle, indent=2, sort_keys=True)
            handle.write("\n")
    stats = session.cache.stats()
    print(
        f"{len(steps)} step(s); cache: {stats['misses']} sweep(s), "
        f"{stats['hits']} hit(s)"
    )
    if tracer is not None:
        rc = _emit_observability(args, tracer)
        if rc:
            return rc
    if mismatches:
        print(
            f"error: {mismatches} step(s) disagreed with the cold solve",
            file=sys.stderr,
        )
        return 4
    return 0


def _cmd_serve(args) -> int:
    import asyncio

    from .service import Gateway, ServiceConfig, Supervisor

    budgets: dict[str, float] = {}
    for item in args.tenant_budget or []:
        tenant, sep, amount = item.partition("=")
        if not sep or not tenant:
            print(
                f"error: --tenant-budget expects TENANT=GATE_UNITS, got {item!r}",
                file=sys.stderr,
            )
            return 2
        try:
            budgets[tenant] = float(amount)
        except ValueError:
            print(
                f"error: --tenant-budget {item!r}: not a number", file=sys.stderr
            )
            return 2
    try:
        config = ServiceConfig(
            workers=args.workers,
            queue_capacity=args.queue_capacity,
            max_resumes=args.max_resumes,
            tenant_budgets=budgets,
            workdir=args.workdir,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    http_host, sep, port_text = args.http.rpartition(":")
    try:
        http_port = int(port_text)
    except ValueError:
        sep = ""
    if not sep or not http_host:
        print(
            f"error: --http expects HOST:PORT, got {args.http!r}",
            file=sys.stderr,
        )
        return 2

    async def run() -> int:
        import signal as _signal

        loop = asyncio.get_running_loop()
        interrupted = asyncio.Event()
        # A plain KeyboardInterrupt tears the event loop down before any
        # coroutine can catch it; a loop signal handler lets us suspend
        # gracefully instead.  SIGTERM gets the same graceful-drain
        # path so a supervised gateway process (systemd, the chaos
        # harness) suspends rather than drops its jobs.
        loop.add_signal_handler(_signal.SIGINT, interrupted.set)
        loop.add_signal_handler(_signal.SIGTERM, interrupted.set)
        try:
            supervisor = Supervisor(config)
            await supervisor.start()
            gateway = Gateway(supervisor, http_host, http_port)
            host, port = await gateway.start()
            print(f"gateway listening on http://{host}:{port}", flush=True)
            await interrupted.wait()
            # Graceful suspend: drain the gateway's in-flight responses,
            # SIGINT in-flight children so they flush their journals;
            # queued jobs settle suspended.  The workdir keeps their
            # checkpoints — the next serve on the same workdir resumes
            # them when their specs are resubmitted.
            await gateway.stop_accepting()
            await supervisor.shutdown(drain=False)
            await gateway.close()
        finally:
            loop.remove_signal_handler(_signal.SIGINT)
            loop.remove_signal_handler(_signal.SIGTERM)
        print(
            "interrupted; suspended in-flight jobs are resumable "
            f"under {supervisor.workdir}",
            file=sys.stderr,
        )
        return 130

    return asyncio.run(run())


def _print_answer(args, record: dict) -> int:
    state = record.get("state")
    if state == "done":
        answer = record.get("answer", {})
        print(f"maximum {args.k}-plex size: {answer.get('size')}")
        print(f"vertices: {answer.get('vertices')}")
        if record.get("degraded_from"):
            print(f"degraded from: {record['degraded_from']}")
        return 0
    print(f"error: job settled {state}: {record.get('error')}", file=sys.stderr)
    return 1


def _cmd_submit(args) -> int:
    """Gateway submission: idempotent POST, reconnect-resumable stream."""
    from .service import GatewayClient, GatewayError, JobSpec

    try:
        spec = JobSpec(
            graph_path=args.graph,
            k=args.k,
            solver=args.solver,
            seed=args.seed,
            tenant=args.tenant,
            name=args.name,
            gate_deadline=args.deadline,
            runtime_us=args.runtime_us,
            edits_path=args.edits,
        )
        client = GatewayClient(args.url, timeout_s=max(args.timeout, 10.0))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        doc = client.submit_with_retries(spec)
    except (GatewayError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    marker = " (replayed)" if doc.get("replayed") else ""
    print(f"submitted {doc['job']}{marker}")
    if not args.wait:
        return 0

    def progress(record):
        if record["event"] == "incumbent":
            data = record["data"]
            replayed = " (replayed)" if data.get("replayed") else ""
            print(f"incumbent: size {data.get('size')}{replayed}")

    try:
        _, result = client.solve(spec, on_event=progress)
    except (GatewayError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return _print_answer(args, result)


def _cmd_draw(args, graph) -> int:
    from .quantum import draw_circuit

    oracle = KCplexOracle(graph.complement(), args.k, args.threshold)
    try:
        print(draw_circuit(oracle.u_check))
    except ValueError as exc:
        print(f"circuit too large to draw: {exc}", file=sys.stderr)
        return 2
    costs = oracle.component_costs()
    print(
        f"\n{oracle.num_qubits} qubits; per-oracle-call gates: "
        f"encode={costs.encode} count={costs.degree_count} "
        f"compare={costs.degree_compare} size={costs.size_check}"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
