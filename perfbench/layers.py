"""Per-layer tracing: wrappers around ``repro``'s public layer entry points.

The wrappers live here, not in ``src/``: each one opens a span on the
caller thread's :class:`repro.obs.Tracer` -- the same tracer the
benchmark passes to ``qmkp``/``qamkp`` as ``tracer=`` -- so the spans
the program already emits (``qmkp``, ``qtkp``, ``qtkp.attempt``,
``perf.sweep``, ``qamkp.sample``, ``anneal.sa``, ...) nest with them in
one tree.  A thread with no tracer bound calls straight through.

A target that no longer exists raises :class:`LayerTargetError` naming
it, so a renamed layer fails the traced run instead of reporting zero.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

#: Full-array passes one dense Grover iteration makes over the 2^n
#: float64 amplitudes: the mean (read), and ``2*mean - amp`` (read +
#: write).  The sign flip touches only the marked entries.
GROVER_ARRAY_PASSES = 3


class LayerTargetError(RuntimeError):
    """A wrapped layer target cannot be resolved."""

    def __init__(self, target: str, reason: str) -> None:
        super().__init__(f"layer target {target} {reason}")
        self.target = target


class Recorder:
    """Thread-local tracer binding plus counters the wrappers feed."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self.counts: dict[str, float] = {}

    def bind(self, tracer) -> None:
        self._local.tracer = tracer

    def tracer(self):
        return getattr(self._local, "tracer", None)

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + amount


def _grover_run(recorder: Recorder, run) -> None:
    recorder.count("grover.iterations", run.iterations)
    recorder.count(
        "grover.bytes_computed",
        run.iterations * (1 << run.num_qubits) * 8 * GROVER_ARRAY_PASSES,
    )


def _qpu_sample(recorder: Recorder, sampleset) -> None:
    recorder.count("annealing.qpu.shots", sampleset.info.get("num_reads", 0))


def _sampleset_rows(recorder: Recorder, sampleset) -> None:
    recorder.count("annealing.sampleset.rows", len(sampleset))


def _validation_rows(recorder: Recorder, result) -> None:
    recorder.count("resilience.validation.rows", result[1].total_rows)


@dataclass(frozen=True)
class Target:
    """``module:attr`` to wrap, the span it opens, and what it counts.

    ``span=None`` makes a count-only wrapper (for per-row calls where a
    span per call would distort the timing it is meant to explain).
    """

    module: str
    attr: str
    span: str | None
    count: str | None = None
    hook: Callable | None = None

    @property
    def label(self) -> str:
        return f"{self.module}:{self.attr}"


TARGETS: tuple[Target, ...] = (
    Target("repro.grover.simulator", "PhaseOracleGrover.__init__", "grover.init"),
    Target("repro.grover.simulator", "PhaseOracleGrover.run", "grover.run",
           hook=_grover_run),
    Target("repro.grover.simulator", "GroverRun.measure_once", "grover.measure"),
    Target("repro.core.oracle", "KCplexOracle.__init__", "core.oracle.build"),
    Target("repro.core.oracle", "KCplexOracle.component_costs", "core.oracle.cost"),
    Target("repro.perf.cache", "MarkedSetCache.table", "perf.table"),
    Target("repro.perf.cache", "MarkedSetCache.marked", "perf.marked"),
    Target("repro.kplex.verify", "is_kplex", "kplex.verify"),
    Target("repro.kplex.bounds", "best_upper_bound", "kplex.bound"),
    Target("repro.kplex.heuristics", "repair_to_kplex", "kplex.repair"),
    Target("repro.core.qubo_formulation", "build_mkp_qubo", "core.qubo.build"),
    Target("repro.annealing.topology", "chimera_graph", "annealing.topology.build"),
    Target("repro.annealing.embedding", "find_embedding", "annealing.embedding.find"),
    Target("repro.annealing.qpu", "SimulatedQPUSampler.sample",
           "annealing.qpu.sample", hook=_qpu_sample),
    Target("repro.annealing.sa", "SimulatedAnnealingSampler.sample",
           "annealing.sa.sample"),
    Target("repro.annealing.sampleset", "SampleSet.from_states",
           "annealing.sampleset.build", hook=_sampleset_rows),
    Target("repro.annealing.sampleset", "SampleSet.from_counts",
           "annealing.sampleset.build", hook=_sampleset_rows),
    Target("repro.annealing.bqm", "BinaryQuadraticModel.energy", None,
           count="annealing.bqm.energy_calls"),
    Target("repro.annealing.bqm", "BinaryQuadraticModel.energies",
           "annealing.bqm.energies"),
    Target("repro.resilience.validation", "validate_sampleset",
           "resilience.validation", hook=_validation_rows),
    Target("repro.service.http", "GatewayClient.submit", "service.http.submit"),
    Target("repro.service.http", "GatewayClient.stream_once", "service.http.stream"),
)


def _wrapper(fn, target: Target, recorder: Recorder):
    if inspect.isgeneratorfunction(fn):
        @functools.wraps(fn)
        def stream(*args, **kwargs):
            tracer = recorder.tracer()
            if tracer is None:
                return (yield from fn(*args, **kwargs))
            with tracer.span(target.span):
                return (yield from fn(*args, **kwargs))
        return stream

    @functools.wraps(fn)
    def call(*args, **kwargs):
        tracer = recorder.tracer()
        if tracer is None:
            return fn(*args, **kwargs)
        if target.count is not None:
            recorder.count(target.count)
        if target.span is None:
            return fn(*args, **kwargs)
        with tracer.span(target.span):
            result = fn(*args, **kwargs)
        if target.hook is not None:
            target.hook(recorder, result)
        return result
    return call


def _plan(target: Target, recorder: Recorder) -> list[tuple[object, str, object, object]]:
    """Resolve one target: ``(owner, name, original, replacement)`` bindings."""
    try:
        module = importlib.import_module(target.module)
    except ImportError as exc:
        raise LayerTargetError(target.label, f"cannot be imported: {exc}") from exc
    *path, name = target.attr.split(".")
    owner = module
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            raise LayerTargetError(target.label, "no longer exists")
    if isinstance(owner, type):
        raw = next((vars(c)[name] for c in owner.__mro__
                    if c is not object and name in vars(c)), None)
    else:
        raw = getattr(owner, name, None)
    if raw is None:
        raise LayerTargetError(target.label, "no longer exists")
    if isinstance(raw, (classmethod, staticmethod)):
        return [(owner, name, raw,
                 type(raw)(_wrapper(raw.__func__, target, recorder)))]
    if not callable(raw):
        raise LayerTargetError(target.label, "is not callable")
    replacement = _wrapper(raw, target, recorder)
    if isinstance(owner, type):
        return [(owner, name, raw, replacement)]
    # A module-level function is also bound by ``from x import f`` in
    # every importer: rebind each ``repro`` module's reference.
    return [
        (mod, attr, raw, replacement)
        for mod_name, mod in list(sys.modules.items())
        if mod is not None and (mod_name == "repro" or mod_name.startswith("repro."))
        for attr, value in list(vars(mod).items())
        if value is raw
    ]


@contextmanager
def wrapped(recorder: Recorder, targets: tuple[Target, ...] = TARGETS):
    """Wrap every target for the duration of the block, then restore.

    All targets are resolved before any is patched, so a missing one
    leaves the program untouched.
    """
    bindings = [binding for target in targets for binding in _plan(target, recorder)]
    try:
        for owner, name, _, replacement in bindings:
            setattr(owner, name, replacement)
        yield recorder
    finally:
        for owner, name, original, _ in reversed(bindings):
            setattr(owner, name, original)


# ----------------------------------------------------------------------
# Span-tree arithmetic
# ----------------------------------------------------------------------
def self_time(span) -> float:
    """Duration minus the part of it that child spans cover."""
    covered = 0.0
    end_so_far = span.start_s
    for start, end in sorted(
        (c.start_s, c.start_s + (c.duration_s or 0.0)) for c in span.children
    ):
        start = max(start, end_so_far)
        if end > start:
            covered += end - start
            end_so_far = end
    return (span.duration_s or 0.0) - covered


def span_table(roots) -> dict[str, dict[str, float]]:
    """Per span name: how many were opened (``count``) and total ``self_s``."""
    table: dict[str, dict[str, float]] = {}
    for root in roots:
        for span in root.walk():
            row = table.setdefault(span.name, {"count": 0, "self_s": 0.0})
            row["count"] += 1
            row["self_s"] += self_time(span)
    return table


def flatten(roots) -> list[dict]:
    """Spans as ``name/start/end/parent`` records, times relative to the first."""
    origin = min((root.start_s for root in roots), default=0.0)
    out: list[dict] = []

    def visit(span, parent) -> None:
        index = len(out)
        out.append({
            "id": index, "parent": parent, "name": span.name,
            "start_s": span.start_s - origin,
            "end_s": span.start_s + (span.duration_s or 0.0) - origin,
        })
        for child in span.children:
            visit(child, index)

    for root in roots:
        visit(root, None)
    return out


#: The layer each span name's self time belongs to -- its ``*_s``
#: per-layer metric where there is one.  Spans the program emits count
#: for the module that emits them; the benchmark's own per-op root span
#: is the unattributed remainder.
SELF_TIME_METRIC = {
    "grover.init": "grover.init_s",
    "grover.run": "grover.run_s",
    "grover.measure": "grover.measure_s",
    "core.oracle.build": "core.oracle.build_s",
    "core.oracle.cost": "core.oracle.cost_s",
    "perf.table": "perf.table_s",
    "perf.marked": "perf.table_s",
    "perf.sweep": "perf.table_s",
    "perf.patch": "perf.table_s",
    "kplex.verify": "kplex.verify_s",
    "kplex.bound": "kplex.bound_s",
    "kplex.repair": "kplex.repair_s",
    "qtkp": "core.qtkp.self_s",
    "qtkp.attempt": "core.qtkp.self_s",
    "qtkp.bbht": "core.qtkp.self_s",
    "qmkp": "core.qmkp.self_s",
    "qmkp.fallback": "core.qmkp.self_s",
    "checkpoint.replay": "core.qmkp.self_s",
    "qamkp": "core.qamkp.self_s",
    "qamkp.sample": "core.qamkp.self_s",
    "core.qubo.build": "core.qubo.build_s",
    "annealing.topology.build": "annealing.topology.build_s",
    "annealing.embedding.find": "annealing.embedding.find_s",
    "annealing.qpu.sample": "annealing.qpu.sample_s",
    "annealing.sa.sample": "annealing.sa.sample_s",
    "anneal.sa": "annealing.sa.sample_s",
    "anneal.sweep": "annealing.sa.sample_s",
    "annealing.sampleset.build": "annealing.sampleset.build_s",
    "annealing.bqm.energies": "annealing.bqm.energies_s",
    "resilience.validation": "resilience.validation.s",
    "service.http.submit": "service.http.submit",
    "service.http.stream": "service.http.stream",
    "bench.op": "obs.unattributed_s",
}

#: Span names counted as a metric (number of spans opened).
SPAN_COUNT_METRIC = {
    "grover.run": "grover.runs",
    "core.oracle.build": "core.oracle.builds",
    "perf.sweep": "perf.sweeps",
    "kplex.verify": "kplex.verify_calls",
    "qtkp": "core.qtkp.probes",
    "core.qubo.build": "core.qubo.builds",
    "annealing.topology.build": "annealing.topology.builds",
    "annealing.embedding.find": "annealing.embedding.finds",
}


def self_time_by_metric(table: dict[str, dict[str, float]]) -> dict[str, float]:
    """Self seconds per layer metric; unknown span names land in ``other``."""
    out: dict[str, float] = {}
    for name, row in table.items():
        metric = SELF_TIME_METRIC.get(name, "other")
        out[metric] = out.get(metric, 0.0) + row["self_s"]
    return out


def layer_metrics(roots, recorder: Recorder, counters: dict[str, float]) -> dict[str, float]:
    """The span- and counter-derived per-layer metrics of one traced pass.

    ``counters`` is the tracers' summed metric registry (the program's
    own counters: cache hits, qTKP attempts, anneal sweeps and flips).
    """
    table = span_table(roots)
    metrics = {name: 0.0 for name in set(SELF_TIME_METRIC.values())}
    metrics.update(self_time_by_metric(table))
    metrics.pop("other", None)
    for span_name, metric in SPAN_COUNT_METRIC.items():
        metrics[metric] = table.get(span_name, {}).get("count", 0)
    for name in ("grover.iterations", "grover.bytes_computed", "annealing.qpu.shots",
                 "annealing.sampleset.rows", "annealing.bqm.energy_calls",
                 "resilience.validation.rows"):
        metrics[name] = recorder.counts.get(name, 0)
    hits = counters.get("marked_cache_hits", 0)
    lookups = hits + counters.get("marked_cache_misses", 0)
    metrics["perf.hit_ratio"] = hits / lookups if lookups else 0.0
    probes = metrics["core.qtkp.probes"]
    metrics["core.qtkp.attempts_per_probe"] = (
        counters.get("qtkp_attempts", 0) / probes if probes else 0.0
    )
    qpu_solves = table.get("annealing.qpu.sample", {}).get("count", 0)
    metrics["annealing.embedding.reuse_ratio"] = (
        1.0 - metrics["annealing.embedding.finds"] / qpu_solves if qpu_solves else 0.0
    )
    metrics["annealing.sa.sweeps"] = counters.get("anneal_sweeps", 0)
    metrics["annealing.sa.flips"] = counters.get("anneal_flips", 0)
    return metrics
