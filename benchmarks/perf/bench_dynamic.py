"""Perf harness for dynamic-graph incremental re-solves.

One gated block, emitted as ``BENCH_qmkp_dynamic_n<n>_k<k>.json``:

* ``session`` — an end-to-end :class:`repro.dynamic.IncrementalSolver`
  run over a deterministic single-edge edit stream (``--solve-n``
  vertices, ``--solve-edits`` edits), gated on every step being
  byte-identical to a cold :func:`repro.core.qmkp` of the post-edit
  graph with the step's own seed, and on the session ledger
  reconciling.  Wall-clock for both arms is recorded for context, not
  gated: each step's marked sets take one level sweep in both arms,
  and the Grover probes are identical by construction.

Run from the repo root::

    PYTHONPATH=src python benchmarks/perf/bench_dynamic.py
    PYTHONPATH=src python benchmarks/perf/bench_dynamic.py \
        --solve-n 12 --solve-edits 4   # CI smoke
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from repro.core import qmkp
from repro.dynamic import DynamicGraph, IncrementalSolver
from repro.graphs import gnm_random_graph
from repro.obs import Tracer
from repro.perf import MarkedSetCache


def _edit_stream(graph, count: int, seed: int):
    """``count`` deterministic single-edge toggles for ``graph``."""
    rng = np.random.default_rng(seed)
    present = {tuple(sorted(e)) for e in graph.edges}
    n = graph.num_vertices
    stream = []
    for _ in range(count):
        u, v = 0, 0
        while u == v:
            u, v = map(int, rng.integers(0, n, 2))
        u, v = min(u, v), max(u, v)
        if (u, v) in present:
            present.discard((u, v))
            stream.append(("remove_edge", u, v))
        else:
            present.add((u, v))
            stream.append(("add_edge", u, v))
    return stream


def session_block(args) -> tuple[dict, list[str]]:
    """End-to-end incremental session vs per-step cold solves."""
    failures: list[str] = []
    n = args.solve_n
    m = min(n * 6, n * (n - 1) // 2 - n)  # leave headroom for insertions
    graph = gnm_random_graph(n, m, seed=args.graph_seed)
    stream = _edit_stream(graph, args.solve_edits, args.graph_seed + 2)

    # One untimed solve pays the first-call costs (kernel load and
    # self-check) that would otherwise land on whichever arm runs first.
    qmkp(graph, args.k, rng=np.random.default_rng(0),
         cache=MarkedSetCache(kernel=args.kernel))
    tracer = Tracer()
    session = IncrementalSolver(
        graph, args.k, seed=args.rng_seed, kernel=args.kernel, tracer=tracer
    )
    start = time.perf_counter()
    session.resolve()
    for op, u, v in stream:
        getattr(session, op)(u, v)
        session.resolve()
    incremental_s = time.perf_counter() - start

    dg = DynamicGraph(graph)
    cold_s = 0.0
    identical = 0
    for step_result in session.history:
        for edit in step_result.edits:
            dg.apply(edit)
        start = time.perf_counter()
        cold = qmkp(
            dg.snapshot(), args.k,
            rng=session.step_rng(step_result.step),
            cache=MarkedSetCache(kernel=args.kernel),
        )
        cold_s += time.perf_counter() - start
        if (
            cold.subset == step_result.subset
            and cold.oracle_calls == step_result.result.oracle_calls
            and cold.gate_units == step_result.result.gate_units
            and cold.progression == step_result.result.progression
        ):
            identical += 1
        else:
            failures.append(
                f"step {step_result.step} diverged from its cold solve"
            )

    drift = session.ledger().verify(raise_on_drift=False)
    for record in drift:
        failures.append(f"ledger drift: {record}")
    block = {
        "n": n,
        "m": m,
        "k": args.k,
        "edits": args.solve_edits,
        "steps": len(session.history),
        "identical_steps": identical,
        "cache_misses": session.cache.stats()["misses"],
        "timings_s": {
            "incremental_session": round(incremental_s, 4),
            "cold_resolves": round(cold_s, 4),
        },
        "simulator_wall_speedup": round(cold_s / incremental_s, 2),
        "ledger_verified": not drift,
    }
    return block, failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("-k", type=int, default=2, help="plex parameter")
    parser.add_argument("--graph-seed", type=int, default=3)
    parser.add_argument("--rng-seed", type=int, default=1)
    parser.add_argument(
        "--kernel", default=None,
        help="enumeration kernel backend (default: best available tier)",
    )
    parser.add_argument(
        "--solve-n", type=int, default=14,
        help="vertices of the end-to-end byte-identity instance",
    )
    parser.add_argument(
        "--solve-edits", type=int, default=6,
        help="edit-stream length for the end-to-end block",
    )
    parser.add_argument("--out", type=Path, default=None, help="output JSON path")
    args = parser.parse_args(argv)

    sess, failures = session_block(args)

    report = {
        "bench": "qmkp_dynamic",
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "host": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
        },
        "session": sess,
    }
    out = args.out or (
        Path(__file__).parent
        / f"BENCH_qmkp_dynamic_n{args.solve_n}_k{args.k}.json"
    )
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps({
        "identical_steps": f"{sess['identical_steps']}/{sess['steps']}",
        "ledger_verified": sess["ledger_verified"],
        "incremental_session_s": sess["timings_s"]["incremental_session"],
    }, indent=2))
    print(f"-> {out}")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
