"""Perf harness for the marked-set engine.

Measures end-to-end qMKP wall-clock on a generator instance three ways:

* ``cached`` — the default path: one level sweep per ``(graph, k)``
  shared across all binary-search thresholds
  (:class:`repro.perf.MarkedSetCache`);
* ``uncached`` — the same tree with the cache disabled, i.e. a full
  predicate scan per threshold probe (the seed *structure*, with
  whatever predicate speedups the tree has since gained);
* optionally a ``--baseline-s`` figure measured on the seed commit
  itself (run this script there via ``--legacy``), recorded verbatim so
  the emitted JSON carries true before/after numbers.

It also runs a predicate-agreement sweep — the level-sweep enumerator
against ``KCplexOracle.predicate`` over every ``(k, T)`` on randomized
small graphs — and **exits non-zero on any mismatch or any divergence
between cached and uncached qMKP results**, which is what the CI smoke
job gates on.

A ``kernels`` block rides on the same harness: per-backend timing of
the level-by-level enumeration behind every marked-set table
(:func:`repro.perf.bitparallel.kplex_levels`) through every available
kernel tier (numpy / cext), gated on byte-identical mask arrays (the
SHA-256 of :func:`~repro.perf.bitparallel.kplex_masks`' ascending
``masks + sizes`` bytes) and, when the compiled tier exists, on a
minimum speedup over the NumPy reference.  ``--enum-only`` restricts the run to this block so the
committed ``n >= 24`` baseline stays tractable (the uncached qmkp at
n = 24 scans 2^24 masks through the Python predicate at every probe).

Emits ``BENCH_qmkp_n<n>_k<k>.json`` (override with ``--out``).  Run
from the repo root::

    PYTHONPATH=src python benchmarks/perf/bench_marked_engine.py --n 18 --edges 120
    PYTHONPATH=src python benchmarks/perf/bench_marked_engine.py \
        --n 24 --enum-only --repeat 3
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
from repro.core.oracle import KCplexOracle
from repro.graphs import gnm_random_graph


def _result_fingerprint(result) -> dict:
    return {
        "subset": sorted(result.subset),
        "size": result.size,
        "oracle_calls": result.oracle_calls,
        "gate_units": result.gate_units,
        "qtkp_calls": result.qtkp_calls,
        "progression": [
            [e.cumulative_oracle_calls, e.cumulative_gate_units, e.size, e.threshold]
            for e in result.progression
        ],
    }


def _time_qmkp(
    graph, k, rng_seed, repeat, tracer_factory=None, **kwargs
) -> tuple[float, dict, object]:
    """Best-of-``repeat`` wall clock; returns (seconds, fingerprint, tracer).

    ``tracer_factory`` builds a fresh tracer per repeat (so timings are
    not polluted by a growing span tree); the returned tracer is the
    last repeat's, for the ledger.
    """
    best = float("inf")
    fingerprint = None
    tracer = None
    for _ in range(repeat):
        tracer = tracer_factory() if tracer_factory is not None else None
        rng = np.random.default_rng(rng_seed)
        start = time.perf_counter()
        result = qmkp(graph, k, rng=rng, tracer=tracer, **kwargs)
        best = min(best, time.perf_counter() - start)
        fp = _result_fingerprint(result)
        if fingerprint is None:
            fingerprint = fp
        elif fingerprint != fp:
            raise AssertionError("qmkp is not deterministic under a fixed seed")
    return best, fingerprint, tracer


def kernel_comparison(graph, k, repeat: int, min_speedup: float) -> tuple[dict, list[str]]:
    """Per-backend timing of the level-by-level enumeration.

    Every available tier runs the same ``kplex_levels`` enumeration;
    outputs are compared byte-for-byte against the NumPy reference, and
    the fastest *compiled* tier must clear ``min_speedup`` (skipped
    when only numpy is available — the tier is an accelerator, not a
    dependency).
    """
    import hashlib

    from repro.perf.bitparallel import kplex_levels, kplex_masks
    from repro.perf.kernels import available_backends

    failures: list[str] = []
    backends = available_backends()
    block: dict = {"available": backends, "min_speedup": min_speedup, "tiers": {}}
    reference = None
    seconds: dict[str, float] = {}
    for name in backends:
        best = float("inf")
        for _ in range(repeat):
            start = time.perf_counter()
            kplex_levels(graph, k, kernel=name)
            best = min(best, time.perf_counter() - start)
        seconds[name] = best
        masks, sizes = kplex_masks(graph, k, kernel=name)
        digest = hashlib.sha256(masks.tobytes() + sizes.tobytes()).hexdigest()
        block["tiers"][name] = {
            "seconds": round(best, 6),
            "masks_sha256": digest,
            "num_marked": int(masks.size),
        }
        if name == "numpy":
            reference = digest
    for name, tier in block["tiers"].items():
        # Millisecond tables: the ratio uses the unrounded timings.
        tier["speedup_vs_numpy"] = round(seconds["numpy"] / seconds[name], 2)
        if tier["masks_sha256"] != reference:
            failures.append(f"kernel {name!r} produced different mask bytes")
    compiled = [n for n in backends if n != "numpy"]
    if compiled:
        best_name = max(
            compiled, key=lambda n: block["tiers"][n]["speedup_vs_numpy"]
        )
        block["best_compiled"] = best_name
        best_speedup = block["tiers"][best_name]["speedup_vs_numpy"]
        if best_speedup < min_speedup:
            failures.append(
                f"compiled enumeration speedup {best_speedup:.2f}x below "
                f"required {min_speedup:.2f}x"
            )
    return block, failures


def predicate_agreement_sweep(instances: int, max_n: int = 7) -> dict:
    """Bit-parallel enumerator vs the oracle predicate, all (k, T)."""
    from repro.perf import MarkedSetCache

    checked = 0
    mismatches = 0
    for seed in range(instances):
        n = 4 + seed % (max_n - 3)
        m = min(n * (n - 1) // 2, n + 2 * seed % (2 * n))
        graph = gnm_random_graph(n, m, seed=seed)
        cache = MarkedSetCache()
        for k in range(1, 4):
            oracle = KCplexOracle(graph.complement(), k, 0)
            expected = [mask for mask in range(1 << n) if oracle.predicate(mask)]
            for threshold in range(n + 1):
                want = [m_ for m_ in expected if m_.bit_count() >= threshold]
                got = sorted(int(x) for x in cache.marked(graph, k, threshold))
                checked += 1
                if got != want:
                    mismatches += 1
    return {"instances": instances, "threshold_checks": checked, "mismatches": mismatches}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=18, help="vertices (default 18)")
    parser.add_argument("--edges", type=int, default=None, help="edges (default ~n*6)")
    parser.add_argument("-k", type=int, default=2, help="plex parameter")
    parser.add_argument("--graph-seed", type=int, default=3)
    parser.add_argument("--rng-seed", type=int, default=1)
    parser.add_argument("--repeat", type=int, default=1, help="timing repeats (min taken)")
    parser.add_argument(
        "--sweep-instances", type=int, default=6,
        help="random instances for the predicate-agreement sweep",
    )
    parser.add_argument(
        "--baseline-s", type=float, default=None,
        help="seed-commit wall-clock (measured there with --legacy), recorded as-is",
    )
    parser.add_argument(
        "--legacy", action="store_true",
        help="time plain qmkp(graph, k, rng) only and print it (for the seed tree)",
    )
    parser.add_argument(
        "--trace", type=Path, default=None, metavar="PATH",
        help="also time a traced run, write its run-ledger JSON to PATH, "
        "and fail on ledger drift or excessive tracing overhead",
    )
    parser.add_argument(
        "--trace-overhead-limit", type=float, default=0.10,
        help="max allowed (traced - untraced) / untraced (default 0.10)",
    )
    parser.add_argument(
        "--enum-only", action="store_true",
        help="skip the full-qmkp timings (for n >= ~20, where the "
        "uncached per-probe predicate scan is intractable) and benchmark the "
        "enumeration kernel tiers only",
    )
    parser.add_argument(
        "--min-kernel-speedup", type=float, default=3.0,
        help="required compiled-vs-numpy enumeration speedup when a "
        "compiled backend is available (default 3.0)",
    )
    parser.add_argument("--out", type=Path, default=None, help="output JSON path")
    args = parser.parse_args(argv)

    edges = args.edges if args.edges is not None else args.n * 6
    graph = gnm_random_graph(args.n, edges, seed=args.graph_seed)

    if args.legacy:
        elapsed, fingerprint, _ = _time_qmkp(graph, args.k, args.rng_seed, args.repeat)
        print(f"legacy qmkp n={args.n} m={edges} k={args.k}: {elapsed:.3f}s "
              f"size={fingerprint['size']}")
        return 0

    kernel_block, kernel_failures = kernel_comparison(
        graph, args.k, args.repeat, args.min_kernel_speedup
    )

    if args.enum_only:
        report = {
            "bench": "qmkp_marked_engine",
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
                "graph_seed": args.graph_seed,
                "rng_seed": args.rng_seed,
            },
            "enum_only": True,
            "kernels": kernel_block,
        }
        out = args.out or Path(__file__).parent / f"BENCH_qmkp_n{args.n}_k{args.k}.json"
        out.write_text(json.dumps(report, indent=2) + "\n")
        print(json.dumps(kernel_block, indent=2))
        print(f"-> {out}")
        for failure in kernel_failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1 if kernel_failures else 0

    cached_s, cached_fp, _ = _time_qmkp(
        graph, args.k, args.rng_seed, args.repeat, use_cache=True
    )
    uncached_s, uncached_fp, _ = _time_qmkp(
        graph, args.k, args.rng_seed, args.repeat, use_cache=False
    )
    identical = cached_fp == uncached_fp
    sweep = predicate_agreement_sweep(args.sweep_instances)

    trace_block = None
    trace_failures: list[str] = []
    if args.trace is not None:
        from repro.obs import RunLedger, Tracer

        traced_s, traced_fp, tracer = _time_qmkp(
            graph, args.k, args.rng_seed, args.repeat,
            tracer_factory=Tracer, use_cache=True,
        )
        if traced_fp != cached_fp:
            trace_failures.append("traced run diverged from untraced run")
        ledger = RunLedger.from_tracer(
            tracer,
            meta={
                "bench": "qmkp_marked_engine",
                "n": args.n, "m": edges, "k": args.k,
                "graph_seed": args.graph_seed, "rng_seed": args.rng_seed,
            },
        )
        drift = ledger.verify(raise_on_drift=False)
        for record in drift:
            trace_failures.append(f"ledger drift: {record}")
        ledger.to_json(args.trace)
        overhead = traced_s / cached_s - 1.0
        if overhead > args.trace_overhead_limit:
            trace_failures.append(
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
        "bench": "qmkp_marked_engine",
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
            "graph_seed": args.graph_seed,
            "rng_seed": args.rng_seed,
        },
        "timings_s": {
            "cached": round(cached_s, 4),
            "uncached_scan": round(uncached_s, 4),
            "seed_baseline": args.baseline_s,
        },
        "speedup": {
            "vs_uncached_scan": round(uncached_s / cached_s, 2),
            "vs_seed_baseline": (
                round(args.baseline_s / cached_s, 2) if args.baseline_s else None
            ),
        },
        "result": cached_fp,
        "identical_cached_vs_uncached": identical,
        "predicate_agreement": sweep,
        "kernels": kernel_block,
        "trace": trace_block,
    }

    out = args.out or Path(__file__).parent / f"BENCH_qmkp_n{args.n}_k{args.k}.json"
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report["timings_s"] | report["speedup"], indent=2))
    print(f"identical={identical} mismatches={sweep['mismatches']} -> {out}")
    if trace_block is not None:
        print(
            f"trace: verified={trace_block['verified']} "
            f"overhead={trace_block['overhead_fraction']:.1%} "
            f"-> {trace_block['ledger']}"
        )

    if not identical or sweep["mismatches"]:
        print("FAIL: cached/uncached divergence or predicate mismatch", file=sys.stderr)
        return 1
    if trace_failures or kernel_failures:
        for failure in trace_failures + kernel_failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
