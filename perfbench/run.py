"""End-to-end benchmark of the repro package, with a per-layer split.

Usage::

    python3 perfbench/run.py --workload qmkp-gate --seed 1 --seconds 30 --trace 0

Workloads (``workloads.py`` says why each exists and which layers it
isolates or bypasses): ``qmkp-gate``, ``qamkp-anneal``, ``gateway-mix``;
``--workload all`` runs the three in turn.  Inputs come only from
``--seed``.  Every op's answer is checked: a wrong, failed or refused op
counts in ``error_rate`` and makes the command exit 1.

``--trace 0`` measures the end-to-end metrics with tracing off:

* ``setup_s``: fresh process to first op ready (interpreter start,
  imports, instance build, kernel load, plus server boot on
  ``gateway-mix``); median of several fresh processes.  The one-time C
  kernel compile and bytecode compile happen before any timing and are
  reported separately as provenance.
* ``wall_s``: wall time of the workload's fixed op list.  Passes over
  the list repeat while the next one still fits in ``--seconds``; with
  one caller it is the sum of each op's fastest repeat (repeats of an op
  are identical, so they differ only by host noise), on ``gateway-mix``
  the median pass.
* ``latency_p50_s``: median op latency (per op its fastest repeat, or
  every op on ``gateway-mix``); ``latency_tail_s``: the percentile of
  the same latencies fixed per workload in ``workloads.TAIL_PERCENTILE``.
* ``first_result_p50_s``: median time from op start to first verified
  incumbent, aggregated like ``latency_p50_s``.
* ``peak_rss_mb``: peak resident memory of the largest process in the
  solving process tree.

``--trace 1`` runs one untraced and one traced pass and reports the
per-layer metrics of the traced one; its span tree (name, start, end,
parent) is written to ``.perfbench/trace-<workload>-seed<seed>.json``.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Everything the benchmark writes stays under
``.perfbench/`` in the checkout (the C kernel cache included).
"""

from __future__ import annotations

import argparse
import compileall
import importlib.util
import json
import math
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

#: Hard cap on one run; the slowest full-scale run takes about a third.
RUN_BUDGET_S = 170.0
#: Extra fresh processes timed for ``setup_s`` (the measured worker is one more).
SETUP_SAMPLES = 4
IMPORT_PROBES = 3

WORKLOAD_NAMES = ("qmkp-gate", "qamkp-anneal", "gateway-mix")

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("latency_p50_s", "s"),
    ("latency_tail_s", "s"),
    ("first_result_p50_s", "s"),
    ("peak_rss_mb", "MB"),
)

_HIGHER = {"perf.hit_ratio", "annealing.embedding.reuse_ratio", "service.jobs",
           "service.http.events_streamed"}

#: ``(name, unit, better)``; counts of work done are better lower.
PER_LAYER = tuple((name, unit, "higher" if name in _HIGHER else "lower") for name, unit in (
    ("grover.init_s", "s"), ("grover.run_s", "s"), ("grover.runs", "count"),
    ("grover.iterations", "count"), ("grover.measure_s", "s"),
    ("grover.bytes_computed", "B"),
    ("core.oracle.build_s", "s"), ("core.oracle.builds", "count"),
    ("core.oracle.cost_s", "s"),
    ("perf.table_s", "s"), ("perf.sweeps", "count"), ("perf.hit_ratio", "ratio"),
    ("kplex.verify_s", "s"), ("kplex.verify_calls", "count"),
    ("kplex.bound_s", "s"), ("kplex.repair_s", "s"),
    ("core.qtkp.probes", "count"), ("core.qtkp.attempts_per_probe", "ratio"),
    ("core.qtkp.self_s", "s"), ("core.qmkp.self_s", "s"),
    ("core.qmkp.first_result_frac", "ratio"), ("core.qamkp.self_s", "s"),
    ("core.qubo.build_s", "s"), ("core.qubo.builds", "count"),
    ("annealing.topology.build_s", "s"), ("annealing.topology.builds", "count"),
    ("annealing.embedding.find_s", "s"), ("annealing.embedding.finds", "count"),
    ("annealing.embedding.reuse_ratio", "ratio"),
    ("annealing.qpu.sample_s", "s"), ("annealing.qpu.shots", "count"),
    ("annealing.sa.sample_s", "s"), ("annealing.sa.sweeps", "count"),
    ("annealing.sa.flips", "count"),
    ("annealing.sampleset.build_s", "s"), ("annealing.sampleset.rows", "count"),
    ("annealing.bqm.energy_calls", "count"), ("annealing.bqm.energies_s", "s"),
    ("resilience.validation.s", "s"), ("resilience.validation.rows", "count"),
    ("import.repro_s", "s"), ("import.runner_s", "s"), ("import.modules", "count"),
    ("service.solve_s", "s"), ("service.runner_overhead_s", "s"),
    ("service.jobs", "count"), ("service.resumes", "count"),
    ("service.failed", "count"),
    ("service.http.submit_s", "s"), ("service.http.replay_s", "s"),
    ("service.http.events_streamed", "count"), ("service.http.rejected", "count"),
    ("service.http.evictions", "count"),
    ("obs.trace_overhead_frac", "ratio"), ("obs.unattributed_s", "s"),
    ("obs.ledger_drift", "count"),
    ("gate_units", "count"), ("anneal_cost", "objective"),
))


class BenchError(RuntimeError):
    """The run could not produce a result (timeout, crashed worker)."""


def _environment() -> dict[str, str]:
    """Child environment: the checkout's ``src`` and caches inside ``.perfbench``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env["REPRO_KERNEL_CACHE"] = str(WORK / "kernels")
    env["TMPDIR"] = str(WORK / "tmp")
    env.pop("REPRO_KERNEL", None)
    return env


def _prepare() -> dict[str, object]:
    """Compile bytecode and the C kernel before timing; return provenance."""
    compileall.compile_dir(str(SRC), quiet=1)
    compileall.compile_dir(str(HERE), quiet=1)
    import numpy
    import scipy
    from repro.perf import cext
    from repro.perf.kernels import available_backends, resolve

    cached = cext.shared_library_path().exists()
    start = time.perf_counter()
    auto = resolve("auto").name
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "kernels": available_backends(),
        "auto_kernel": auto,
        "numba": importlib.util.find_spec("numba") is not None,
        "kernel_prepare_s": time.perf_counter() - start,
        "kernel_cached": cached,
    }


def _spawn(args: list[str], env, deadline: float) -> tuple[subprocess.Popen, float]:
    """Start a worker and time it from spawn to its ``ready`` line."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *args],
        stdout=subprocess.PIPE, env=env, start_new_session=True,
    )
    line = b""
    while not line.endswith(b"\n"):
        timeout = deadline - time.perf_counter()
        if timeout <= 0 or not select.select([proc.stdout], [], [], timeout)[0]:
            _kill(proc)
            raise BenchError("worker did not become ready in time")
        chunk = os.read(proc.stdout.fileno(), 64)
        if not chunk:
            _wait(proc, deadline)
            raise BenchError(f"worker exited during set-up (code {proc.returncode})")
        line += chunk
    if line.strip() != b"ready":
        _kill(proc)
        raise BenchError(f"unexpected worker output {line!r}")
    return proc, time.perf_counter() - start


def _kill(proc: subprocess.Popen) -> None:
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()


def _wait(proc: subprocess.Popen, deadline: float):
    """Reap ``proc`` by its deadline; returns its resource usage."""
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            proc.stdout.close()
            return usage
        if time.perf_counter() > deadline:
            _kill(proc)
            raise BenchError("worker exceeded the run's time budget")
        time.sleep(0.02)


def _worker_args(a, workdir: Path) -> list[str]:
    return ["--workload", a.workload, "--seed", str(a.seed), "--seconds",
            str(a.seconds), "--trace", str(a.trace), "--scale", a.scale,
            "--workdir", str(workdir)]


def _measure(a, env, run_dir: Path, deadline: float) -> tuple[dict, list[float], float]:
    """The measured worker between set-up samples: ``(output, setups, rss_mb)``.

    Half the set-up-only processes run before the measured worker and
    half after it, so the set-up median samples the host across the run.
    """
    setups = []

    def setup_samples(first: int, count: int) -> None:
        for i in range(first, first + count):
            proc, ready = _spawn(_worker_args(a, run_dir / f"setup{i}") + ["--setup-only"],
                                 env, deadline)
            _wait(proc, deadline)
            if proc.returncode != 0:
                raise BenchError(f"set-up worker exited {proc.returncode}")
            setups.append(ready)

    before = 0 if a.trace else SETUP_SAMPLES // 2
    after = 0 if a.trace else SETUP_SAMPLES - before
    setup_samples(0, before)
    out_file = run_dir / "worker.json"
    proc, ready = _spawn(_worker_args(a, run_dir / "measured") + ["--out", str(out_file)],
                         env, deadline)
    setups.append(ready)
    usage = _wait(proc, deadline)
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}")
    setup_samples(before, after)
    # ru_maxrss of a reaped child covers its reaped descendants (KiB on Linux).
    return json.loads(out_file.read_text()), setups, usage.ru_maxrss / 1024.0


def _import_probe(env) -> dict[str, float]:
    """``import.*``: import times and module count in fresh interpreters."""
    code = ("import sys, time\nn = len(sys.modules)\nt = time.perf_counter()\n"
            "import {}\nprint(time.perf_counter() - t, len(sys.modules) - n)")
    out: dict[str, float] = {}
    for key, module in (("import.repro_s", "repro"), ("import.runner_s", "repro.service.runner")):
        samples = []
        for _ in range(IMPORT_PROBES):
            text = subprocess.run([sys.executable, "-c", code.format(module)], env=env,
                                  capture_output=True, text=True, check=True, timeout=60).stdout
            seconds, modules = text.split()
            samples.append(float(seconds))
        out[key] = statistics.median(samples)
        if module == "repro.service.runner":
            out["import.modules"] = int(modules)
    return out


# ----------------------------------------------------------------------
# Checks
# ----------------------------------------------------------------------
def _fingerprint(workload: str, answer: dict):
    if workload == "qmkp-gate":
        return answer["subset"], answer["gate_units"], answer["oracle_calls"]
    return answer["cost"], answer["repaired"]


def _inject_wrong_answer(workload: str, record: dict) -> None:
    """Corrupt one answer on the benchmark side (tests the checks)."""
    answer = record["answer"]
    if workload == "qmkp-gate":
        answer["subset"] = answer["subset"][:-1]
    elif workload == "qamkp-anneal":
        answer["repaired"] = answer["repaired"] + [-1]
    else:
        answer["answer"]["vertices"] = answer["answer"]["vertices"][:-1]


def _check(a, output: dict) -> list[tuple[dict, str]]:
    """Every failed op with its reason; also the repeat-per-seed checks."""
    import workloads as wl

    passes = output["passes"]
    records = [r for p in passes for r in p["ops"]]
    if a.inject_wrong_answer and records[0]["answer"]:
        _inject_wrong_answer(a.workload, records[0])
    failures: dict[int, str] = {}
    if a.workload == "qmkp-gate":
        graphs = wl.gate_graphs(a.seed, a.scale)
        optimum = wl.exact_optima(graphs)
        check = lambda op, r, _: wl.check_gate(op, r, graphs, optimum)  # noqa: E731
        rerun = lambda op: wl.run_gate_op(op, graphs)  # noqa: E731
    elif a.workload == "qamkp-anneal":
        instances = wl.anneal_instances(a.seed, a.scale)
        check = lambda op, r, _: wl.check_anneal(op, r, instances)  # noqa: E731
        rerun = lambda op: wl.run_anneal_op(op, instances)  # noqa: E731
    else:
        check = wl.check_gateway
    for p in passes:
        for r in p["ops"]:
            op = wl.Op(r["index"], r["group"], r["params"])
            try:
                reason = r["error"] or check(op, r, p["ops"])
            except Exception as exc:  # noqa: BLE001 - an unreadable answer is wrong
                reason = f"check raised {type(exc).__name__}: {exc}"
            if reason:
                failures[id(r)] = reason
    if a.workload == "gateway-mix":
        fresh = sum(r["group"] != "duplicate" for r in records)
        delta = output["gateway"]["submitted_delta"]
        if delta != fresh:
            for r in records:
                if r["group"] == "duplicate":
                    failures.setdefault(id(r), f"service_jobs_submitted grew by {delta} "
                                               f"for {fresh} fresh specs")
    else:
        # The same seed must give the same answer: every execution of an
        # op matches its first; an op run once is re-run in-process when
        # that is quick.
        runs: dict[int, list[dict]] = {}
        for r in records:
            runs.setdefault(r["index"], []).append(r)
        for base, *later in runs.values():
            if not base["answer"]:
                continue
            if not later and base["latency_s"] < 1.0:
                op = wl.Op(base["index"], base["group"], base["params"])
                later = [rerun(op)]
            for r in later:
                if r["answer"] and _fingerprint(a.workload, r["answer"]) \
                        != _fingerprint(a.workload, base["answer"]):
                    failures.setdefault(id(base), "answer does not repeat for the same seed")
    return [(r, failures[id(r)]) for r in records if id(r) in failures]


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def _nearest_rank(values: list[float], percentile: float) -> tuple[float, int]:
    """Value at ``percentile`` (nearest rank) and how many samples lie beyond."""
    ordered = sorted(values)
    rank = max(1, math.ceil(percentile / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def _per_op(records: list[dict], key: str) -> dict[int, float]:
    """Each op's fastest ``key`` over its executions in the run.

    Executions of one op repeat the same graph and seed exactly, so they
    differ only by host noise; the fastest is the least disturbed one.
    """
    values: dict[int, list[float]] = {}
    for r in records:
        if r[key] is not None:
            values.setdefault(r["index"], []).append(r[key])
    return {index: min(v) for index, v in values.items()}


def _first_answers(records: list[dict]) -> dict[int, dict]:
    """Each op's first answer (ops repeat within and across passes)."""
    out: dict[int, dict] = {}
    for r in records:
        if r["answer"]:
            out.setdefault(r["index"], r)
    return out


def _end_to_end(workload: str, output: dict, setups: list[float],
                rss_mb: float) -> tuple[dict[str, float], list[str]]:
    import workloads as wl

    passes = output["passes"]
    records = [r for p in passes for r in p["ops"]]
    latencies = [r["latency_s"] for r in records]
    if workload == "gateway-mix":  # two concurrent callers: time the passes
        wall = statistics.median(p["wall_s"] for p in passes)
        per_op = latencies
        firsts = [r["first_s"] for r in records if r["first_s"] is not None]
    else:  # one caller: a pass is its ops in turn, each at its fastest latency
        per_op = list(_per_op(records, "latency_s").values())
        wall = sum(per_op)
        firsts = list(_per_op(records, "first_s").values())
    pct = wl.TAIL_PERCENTILE[workload]
    tail, beyond = _nearest_rank(per_op, pct)
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "latency_p50_s": statistics.median(per_op),
        "latency_tail_s": tail,
        "first_result_p50_s": statistics.median(firsts) if firsts else 0.0,
        "peak_rss_mb": rss_mb,
    }
    per = "ops" if workload == "gateway-mix" else "ops, each its fastest repeat"
    notes = {
        "setup_s": f"median of {len(setups)} fresh processes",
        "wall_s": (f"median of {len(passes)} pass(es)" if workload == "gateway-mix"
                   else f"sum of per-op fastest over {len(passes)} pass(es)"),
        "latency_p50_s": f"n={len(per_op)} {per}, {len(latencies)} executions",
        "latency_tail_s": f"p{pct:g}, n={len(per_op)} {per}, {beyond} beyond",
        "first_result_p50_s": f"n={len(firsts)} {per}",
        "peak_rss_mb": "largest process of the solving tree",
    }
    first = _first_answers(records).values()
    extra = []
    if workload == "qmkp-gate":
        extra.append(f"  {'gate_units':<20} {sum(r['answer']['gate_units'] for r in first)}"
                     " count  (sum over the ops, exact per seed)")
    elif workload == "qamkp-anneal":
        cost = statistics.fmean(
            r["answer"]["cost"] + wl.anneal_optimum(r["params"]["instance"]) for r in first
        )
        extra.append(f"  {'anneal_cost':<20} {cost:.6g} objective"
                     "  (mean best objective above -|P*| per cell, exact per seed)")
    lines = [f"  {name:<20} {metrics[name]:.6g} {unit:<3}  ({notes[name]})"
             for name, unit in END_TO_END] + extra
    return metrics, lines


def _print_profile(profile: dict[str, dict[str, float]]) -> None:
    print("self time by layer, per op group (traced pass):")
    for group, seconds in sorted(profile.items()):
        top = sorted(seconds.items(), key=lambda kv: -kv[1])[:4]
        print(f"  {group:<12} " + ", ".join(f"{k} {v:.4f}s" for k, v in top))


def run_one(a) -> int:
    deadline = time.perf_counter() + RUN_BUDGET_S
    env = _environment()
    os.environ.update({k: env[k] for k in ("REPRO_KERNEL_CACHE", "TMPDIR")})
    os.environ.pop("REPRO_KERNEL", None)
    (WORK / "tmp").mkdir(parents=True, exist_ok=True)
    sys.path[:0] = [str(SRC), str(HERE)]
    provenance = _prepare()
    print("provenance: " + json.dumps(provenance, sort_keys=True))
    if "cext" not in provenance["kernels"]:
        print("provenance: no C kernel tier on this host -- these figures are "
              "not comparable with figures from a host that has it")
    run_dir = WORK / f"{a.workload}-seed{a.seed}-{os.getpid()}"
    try:
        imports = _import_probe(env) if a.trace else {}
        output, setups, rss_mb = _measure(a, env, run_dir, deadline)
    except (BenchError, subprocess.SubprocessError, OSError) as exc:
        shutil.rmtree(run_dir, ignore_errors=True)
        print(f"error: {a.workload}: {exc}", file=sys.stderr)
        return 1
    try:
        failures = _check(a, output)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    attempted = sum(len(p["ops"]) for p in output["passes"])
    print(f"workload {a.workload} seed {a.seed}: {len(output['passes'])} pass(es), "
          f"{attempted} ops, {len(failures)} failed")
    for record, reason in failures[:10]:
        print(f"  FAILED op {record['index']} ({record['group']}): {reason}")
    print(f"  {'error_rate':<20} {len(failures) / attempted:.6g} ratio "
          f" ({len(failures)}/{attempted})")
    if a.trace:
        metrics = {name: 0.0 for name, _, _ in PER_LAYER}
        metrics.update({k: v for k, v in output["layers"].items() if k in metrics})
        metrics.update(imports)
        units = {name: unit for name, unit, _ in PER_LAYER}
        _print_profile(output["profile"])
        trace_file = WORK / f"trace-{a.workload}-seed{a.seed}.json"
        trace_file.write_text(json.dumps(output["spans"]) + "\n")
        print(f"span tree (name, start, end, parent): {trace_file}")
        for name, value in metrics.items():
            print(f"  {name:<34} {value:.6g} {units[name]}")
    else:
        metrics, lines = _end_to_end(a.workload, output, setups, rss_mb)
        units = dict(END_TO_END)
        print("\n".join(lines))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if not failures else 1


def run_all(a) -> int:
    """``--workload all``: each workload as its own run of this command."""
    status = 0
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(a.seed), "--seconds", str(a.seconds),
                "--trace", str(a.trace), "--scale", a.scale]
        status |= subprocess.run(argv, timeout=RUN_BUDGET_S + 10).returncode
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny: a seconds-long smoke run of the same code paths")
    parser.add_argument("--inject-wrong-answer", action="store_true",
                        help="corrupt one answer on the benchmark side (tests the checks)")
    a = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    return run_all(a) if a.workload == "all" else run_one(a)


if __name__ == "__main__":
    raise SystemExit(main())
