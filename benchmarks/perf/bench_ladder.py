#!/usr/bin/env python
"""Binary vs adaptive qMKP threshold ladder, in end-to-end wall time.

For each n, solves G(n, 6n) for several graph and RNG seeds with
``ladder="binary"`` and ``ladder="adaptive"`` under exact and BBHT
counting.  Each solve is an in-process ``qmkp()`` call with defaults
otherwise (run-local cache, auto kernel).  Prints, per (n, counting),
the summed wall time of each ladder and its probe and oracle-call
totals, and fails if the two ladders ever disagree on the optimum size.

Usage::

    PYTHONPATH=src python benchmarks/perf/bench_ladder.py \
        --sizes 16 17 18 19 20 21 22 --graph-seeds 3 --rng-seeds 5
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from repro import qmkp
from repro.graphs import gnm_random_graph

LADDERS = ("binary", "adaptive")


def solve(graph, counting: str, ladder: str, rng_seed: int):
    start = time.perf_counter()
    result = qmkp(graph, 2, counting=counting, ladder=ladder,
                  rng=np.random.default_rng(rng_seed))
    return time.perf_counter() - start, result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=list(range(16, 23)))
    parser.add_argument("--graph-seeds", type=int, default=3)
    parser.add_argument("--rng-seeds", type=int, default=5)
    parser.add_argument("--out", type=Path, default=None, help="output JSON path")
    args = parser.parse_args(argv)

    rows = []
    mismatches = 0
    print(f"{'n':>3} {'counting':>8}  {'binary s':>9} {'adaptive s':>10}  "
          f"{'probes b/a':>11}  {'oracle calls b/a':>17}")
    for n in args.sizes:
        graphs = [gnm_random_graph(n, 6 * n, seed=s) for s in range(args.graph_seeds)]
        for graph in graphs:  # warm the kernel tier and the import
            qmkp(graph, 2, rng=0)
        for counting in ("exact", "bbht"):
            totals = {ladder: {"wall_s": 0.0, "probes": 0, "oracle_calls": 0}
                      for ladder in LADDERS}
            for graph in graphs:
                for rng_seed in range(args.rng_seeds):
                    sizes = set()
                    for ladder in LADDERS:
                        wall, result = solve(graph, counting, ladder, rng_seed)
                        totals[ladder]["wall_s"] += wall
                        totals[ladder]["probes"] += result.qtkp_calls
                        totals[ladder]["oracle_calls"] += result.oracle_calls
                        sizes.add(result.size)
                    mismatches += len(sizes) != 1
            b, a = totals["binary"], totals["adaptive"]
            print(f"{n:>3} {counting:>8}  {b['wall_s']:>9.3f} {a['wall_s']:>10.3f}  "
                  f"{b['probes']:>5}/{a['probes']:<5}  "
                  f"{b['oracle_calls']:>8}/{a['oracle_calls']:<8}")
            rows.append({"n": n, "counting": counting, **{
                ladder: {k: round(v, 4) if isinstance(v, float) else v
                         for k, v in totals[ladder].items()}
                for ladder in LADDERS
            }})
    if args.out is not None:
        args.out.write_text(json.dumps({
            "bench": "qmkp_ladder_walltime", "graph_seeds": args.graph_seeds,
            "rng_seeds": args.rng_seeds, "rows": rows,
        }, indent=2) + "\n")
    if mismatches:
        print(f"FAIL: {mismatches} solve(s) where the ladders disagree on the optimum",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
