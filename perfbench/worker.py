"""Benchmark child process: set up one workload, run its passes, save records.

``run.py`` starts this as a fresh interpreter and times it from spawn to
the ``ready`` line it prints once the first op could start (imports,
instance build, kernel load and, on ``gateway-mix``, server boot).  With
``--setup-only`` it stops there.  Otherwise it repeats the workload's
fixed op list (one *pass*) while another pass as long as the last one
still ends within ``--seconds`` (at least one pass), and writes every
op's latency and answer to ``--out``.
With ``--trace 1`` it instead runs one untraced pass and one traced pass
and also writes the per-layer metrics of the traced one.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import workloads as wl  # noqa: E402
from repro.obs import RunLedger, Tracer  # noqa: E402
from repro.perf.kernels import resolve  # noqa: E402


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


class InProcess:
    """``qmkp-gate`` / ``qamkp-anneal``: one caller, ops called in-process."""

    def __init__(self, workload: str, seed: int, scale: str) -> None:
        if workload == "qmkp-gate":
            graphs = wl.gate_graphs(seed, scale)
            self.ops = wl.gate_ops(seed, graphs)
            self.run_op = lambda op, tracer: wl.run_gate_op(op, graphs, tracer)
        else:
            instances = wl.anneal_instances(seed, scale)
            self.ops = wl.anneal_ops(seed, scale)
            self.run_op = lambda op, tracer: wl.run_anneal_op(op, instances, tracer)

    def pass_ops(self, pass_index: int) -> list[wl.Op]:
        return self.ops

    def run_pass(self, ops, recorder, tracers: list) -> list[dict]:
        tracer = None
        if recorder is not None:
            tracer = Tracer()
            recorder.bind(tracer)
            tracers.append(tracer)
        records = []
        for op in ops:
            # Start every op from a collected heap: a collection that an
            # earlier op's garbage triggers is then never charged to a
            # later op, which makes per-op times repeatable.
            gc.collect()
            span = tracer.span("bench.op", group=op.group) if tracer else nullcontext()
            start = time.perf_counter()
            try:
                with span:
                    record = self.run_op(op, tracer)
                record["error"] = None
            except Exception as exc:  # noqa: BLE001 - a failed op is data
                record = {"latency_s": time.perf_counter() - start, "first_s": None,
                          "answer": None, "error": f"{type(exc).__name__}: {exc}"}
            records.append(record)
        if recorder is not None:
            recorder.bind(None)
        return records

    def close(self) -> None:
        pass


class GatewayMix:
    """``gateway-mix``: a fresh server in ``workdir``, two client threads."""

    def __init__(self, seed: int, scale: str, workdir: Path) -> None:
        self.seed, self.scale, self.workdir = seed, scale, workdir
        self.first_ops = wl.gateway_pass(seed, scale, 0, workdir)
        self.server = wl.Gateway(workdir)
        from repro.service.http import GatewayClient

        self.client = GatewayClient(self.server.url)

    def pass_ops(self, pass_index: int) -> list[wl.Op]:
        if pass_index == 0:
            return self.first_ops
        return wl.gateway_pass(self.seed, self.scale, pass_index, self.workdir)

    def run_pass(self, ops, recorder, tracers: list) -> list[dict]:
        bind = recorder.bind if recorder is not None else None
        return wl.run_gateway_pass(ops, self.server.url, bind, tracers)

    def counters(self) -> dict[str, float]:
        return json.loads(self.client.metrics("json"))["counters"]

    def close(self) -> None:
        self.server.close()


def _service_layers(records: list[dict], tracers: list, counters: dict) -> dict[str, float]:
    """``service.*`` metrics of one traced gateway pass."""
    fresh = [r for r in records if r["group"].startswith("fresh") and r["answer"]]
    solve, overhead = [], []
    drift = 0
    for record in fresh:
        ledger = json.loads(Path(record["answer"]["receipt"]).read_text())["ledger"]
        drift += len(ledger["drift"])
        root = ledger["spans"][0]["duration_s"]
        solve.append(root)
        overhead.append(record["latency_s"] - root)
    submits = [
        span.duration_s
        for tracer in tracers for root in tracer.roots for span in root.walk()
        if span.name == "service.http.submit"
    ]
    replays = [r["latency_s"] for r in records if r["group"] == "duplicate"]
    return {
        "service.solve_s": _median(solve),
        "service.runner_overhead_s": _median(overhead),
        "service.jobs": counters.get("service_jobs_completed", 0),
        "service.resumes": counters.get("service_jobs_resumed", 0),
        "service.failed": counters.get("service_jobs_failed", 0),
        "service.http.submit_s": _median(submits),
        "service.http.replay_s": _median(replays),
        "service.http.events_streamed": counters.get("gateway_events_streamed", 0),
        "service.http.rejected": counters.get("gateway_rejected_backpressure", 0)
        + counters.get("gateway_rejected_admission", 0),
        "service.http.evictions": counters.get("service_slow_client_evictions", 0),
        "receipt_drift": drift,
    }


def _traced_summary(workload: str, passes: list[dict], recorder, tracers: list,
                    gateway_counters: dict | None) -> tuple[dict, dict]:
    """Per-layer metrics and the per-group self-time profile of the traced pass."""
    untraced, traced = passes
    roots = [root for tracer in tracers for root in tracer.roots]
    counters: dict[str, float] = {}
    for tracer in tracers:
        for name, value in tracer.registry.counters().items():
            counters[name] = counters.get(name, 0) + value
    metrics = layers.layer_metrics(roots, recorder, counters)
    metrics["obs.trace_overhead_frac"] = traced["wall_s"] / untraced["wall_s"] - 1.0
    drift = sum(
        len(RunLedger.from_tracer(tracer).verify(raise_on_drift=False))
        for tracer in tracers
    )
    records = traced["ops"]
    answers = list({r["index"]: r["answer"] for r in records if r["answer"]}.values())
    if workload == "qmkp-gate":
        metrics["gate_units"] = sum(a["gate_units"] for a in answers)
        fracs = [a["first_gate_units"] / a["gate_units"] for a in answers
                 if a["gate_units"] and a["first_gate_units"] is not None]
        metrics["core.qmkp.first_result_frac"] = statistics.fmean(fracs) if fracs else 0.0
    elif workload == "qamkp-anneal":
        metrics["anneal_cost"] = statistics.fmean(
            r["answer"]["cost"] + wl.anneal_optimum(r["params"]["instance"])
            for r in records if r["answer"]
        )
    else:
        service = _service_layers(records, tracers, gateway_counters)
        drift += service.pop("receipt_drift")
        metrics.update(service)
        metrics["gate_units"] = sum(
            r["answer"]["answer"]["gate_units"] for r in records
            if r["group"] == "fresh-qmkp" and r["answer"]
        )
    metrics["obs.ledger_drift"] = drift
    profile: dict[str, dict[str, float]] = {}
    for root in roots:
        group = profile.setdefault(str(root.attributes.get("group")), {})
        for key, seconds in layers.self_time_by_metric(layers.span_table([root])).items():
            group[key] = group.get(key, 0.0) + seconds
    return metrics, {"profile": profile, "spans": layers.flatten(roots)}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    args.workdir.mkdir(parents=True, exist_ok=True)
    if args.workload == "gateway-mix":
        runner = GatewayMix(args.seed, args.scale, args.workdir)
    else:
        runner = InProcess(args.workload, args.seed, args.scale)
    try:
        resolve()  # kernel load (compiled beforehand, outside the timing)
        print("ready", flush=True)
        if args.setup_only:
            return 0
        before = runner.counters() if isinstance(runner, GatewayMix) else None
        recorder = layers.Recorder() if args.trace else None
        passes: list[dict] = []
        tracers: list = []
        begin = time.perf_counter()
        while True:
            traced = bool(args.trace) and len(passes) == 1
            ops = runner.pass_ops(len(passes))
            scope = layers.wrapped(recorder) if traced else nullcontext()
            with scope:
                start = time.perf_counter()
                records = runner.run_pass(ops, recorder if traced else None, tracers)
                wall = time.perf_counter() - start
            passes.append({
                "traced": traced, "wall_s": wall,
                "ops": [{"index": op.index, "group": op.group, "params": op.params, **r}
                        for op, r in zip(ops, records)],
            })
            if args.trace:
                if len(passes) == 2:
                    break
            elif time.perf_counter() - begin + wall > args.seconds:
                break  # the next pass, as long as this one, would overrun
        out: dict = {"passes": passes}
        if isinstance(runner, GatewayMix):
            after = runner.counters()
            out["gateway"] = {
                "submitted_delta": after.get("service_jobs_submitted", 0)
                - before.get("service_jobs_submitted", 0),
                "counters": after,
            }
        if args.trace:
            out["layers"], trace = _traced_summary(
                args.workload, passes, recorder, tracers,
                out.get("gateway", {}).get("counters"),
            )
            out.update(trace)
        args.out.write_text(json.dumps(out) + "\n")
    finally:
        runner.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
