"""Worker child process: serve job records from stdin, stream JSON events.

This is what a service "worker" slot actually runs: one long-lived
``python -m repro.service.runner`` per slot, fed one JSON job record
per stdin line.  The child pays interpreter start-up and imports once,
not once per job, and it stays the crash boundary the supervisor's
resume logic is built on — a SIGKILL here loses at most the probe in
flight, because every completed qMKP probe is already fsynced in the
job's write-ahead checkpoint journal.

A job record carries the job's id, spec, checkpoint and receipt paths,
and ``env`` (chaos hooks, applied to ``os.environ`` for this job
only).  Each job gets its own marked-set cache, so a job's cache
counters and ledger are the same as in a child of its own.

Protocol (one JSON object per stdout line, flushed immediately):

* ``{"event": "started", ...}``   — the job is running (pid, whether a
  journal is being resumed);
* ``{"event": "incumbent", ...}`` — one verified feasible k-plex, the
  anytime stream (qMKP threshold probes and branch-search incumbents);
* ``{"event": "suspended", ...}`` — a SIGINT landed; the journal is
  flushed and the job is resumable at its checkpoint path;
* ``{"event": "result", ...}``    — the final answer plus the receipt
  path;
* ``{"event": "exit", ...}``      — the end of the job: ``code`` is 0,
  2 (bad input; ``message`` holds the ``error: ...`` line), 3 (the
  traced run ledger failed to reconcile) or 130 (suspended).

The child exits on stdin EOF (code 0), and after a SIGINT: a job in
flight is suspended and reported with code 130 first.  Any other
exception ends the child with code 1 and a traceback on stderr.

The ``answer`` sub-object of the result event contains only fields
that are bit-identical between an undisturbed run and any
kill/resume sequence — the chaos harness compares it byte-for-byte.
Volatile fields (``resumed_probes``, pid, paths) live outside it.

Every run is traced: the :class:`~repro.obs.RunLedger` receipt —
span tree, metrics, reconciliation verdict — is written next to the
checkpoint and returned to the caller by the service.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from ..core import qamkp, qmkp
from ..graphs import read_edge_list
from ..kplex import maximum_kplex
from ..obs import RunLedger, Tracer
from ..resilience import CheckpointError, CheckpointJournal
from .chaos import HOLD_ENV
from .jobs import JobSpec

__all__ = ["execute", "main", "run_job"]


def _emit(payload: dict[str, object]) -> None:
    sys.stdout.write(json.dumps(payload, sort_keys=True) + "\n")
    sys.stdout.flush()


def _translate(subset, labels) -> list[object]:
    return sorted(labels[v] for v in subset)


def _solve_qmkp(spec: JobSpec, graph, labels, job_id, checkpoint, tracer):
    resume = checkpoint if CheckpointJournal.resumable(checkpoint) else None

    def on_progress(event, subset, replayed) -> None:
        _emit({
            "event": "incumbent",
            "job_id": job_id,
            "size": event.size,
            "threshold": event.threshold,
            "cumulative_gate_units": event.cumulative_gate_units,
            "cumulative_oracle_calls": event.cumulative_oracle_calls,
            "vertices": _translate(subset, labels),
            "replayed": replayed,
        })

    result = qmkp(
        graph,
        spec.k,
        rng=np.random.default_rng(spec.seed),
        tracer=tracer,
        deadline=spec.gate_deadline,
        checkpoint=checkpoint,
        resume=resume,
        on_progress=on_progress,
    )
    answer = {
        "solver": "qmkp",
        "k": spec.k,
        "size": result.size,
        "vertices": _translate(result.subset, labels),
        "gate_units": result.gate_units,
        "oracle_calls": result.oracle_calls,
        "qtkp_calls": result.qtkp_calls,
        "degraded_to": result.degraded_to,
    }
    extra = {"resumed_probes": result.resumed_probes}
    return answer, extra


def _solve_qmkp_dynamic(spec: JobSpec, graph, labels, job_id, checkpoint, tracer):
    """Mutation job: an incremental session over the spec's edit script.

    Each step re-solves after one edit, journalling its probes into a
    per-step WAL under ``<checkpoint>.d/`` — a SIGKILL mid-stream loses
    at most the probe in flight of the step it landed in, and the
    resumed run replays the finished steps bit-identically.  The
    ``answer`` carries only crash-stable fields (sizes, vertices, cost
    totals); the volatile resume counter rides in ``extra``.
    """
    from ..dynamic import IncrementalSolver, apply_labelled_edit, read_edits

    edits = read_edits(spec.edits_path)
    labels = dict(labels)
    session = IncrementalSolver(
        graph,
        spec.k,
        seed=spec.seed if spec.seed is not None else 0,
        tracer=tracer,
        checkpoint_dir=checkpoint.parent / (checkpoint.name + ".d"),
    )

    steps: list[dict[str, object]] = []
    totals = {"gate_units": 0, "oracle_calls": 0, "qtkp_calls": 0}
    resumed = 0

    def run_step() -> None:
        nonlocal resumed
        step = session.resolve()
        result = step.result
        totals["gate_units"] += result.gate_units
        totals["oracle_calls"] += result.oracle_calls
        totals["qtkp_calls"] += result.qtkp_calls
        resumed += step.resumed_probes
        vertices = _translate(step.subset, labels)
        _emit({
            "event": "incumbent",
            "job_id": job_id,
            "size": step.size,
            "threshold": step.step,
            "cumulative_gate_units": totals["gate_units"],
            "cumulative_oracle_calls": totals["oracle_calls"],
            "vertices": vertices,
            "replayed": step.resumed_probes > 0,
        })
        steps.append({
            "step": step.step,
            "edits": [edit.as_line() for edit in step.edits],
            "size": step.size,
            "vertices": vertices,
            "gate_units": result.gate_units,
            "oracle_calls": result.oracle_calls,
        })

    run_step()  # step 0: the unedited graph
    for edit in edits:
        apply_labelled_edit(session, edit, labels)
        run_step()
    final = steps[-1]
    answer = {
        "solver": "qmkp",
        "mode": "dynamic",
        "k": spec.k,
        "size": final["size"],
        "vertices": final["vertices"],
        "gate_units": totals["gate_units"],
        "oracle_calls": totals["oracle_calls"],
        "qtkp_calls": totals["qtkp_calls"],
        "steps": steps,
        "degraded_to": None,
    }
    extra = {"resumed_probes": resumed}
    return answer, extra


def _solve_bs(spec: JobSpec, graph, labels, job_id, tracer):
    def on_incumbent(subset, nodes) -> None:
        _emit({
            "event": "incumbent",
            "job_id": job_id,
            "size": len(subset),
            "threshold": -1,
            "cumulative_gate_units": 0,
            "cumulative_oracle_calls": nodes,
            "vertices": _translate(subset, labels),
            "replayed": False,
        })

    with tracer.span("branch_search", n=graph.num_vertices, k=spec.k) as span:
        result = maximum_kplex(graph, spec.k, on_incumbent=on_incumbent)
        span.set("size", result.size)
        span.set("nodes", result.stats.nodes)
    answer = {
        "solver": "bs",
        "k": spec.k,
        "size": result.size,
        "vertices": _translate(result.subset, labels),
        "gate_units": 0,
        "nodes": result.stats.nodes,
    }
    return answer, {}


def _solve_qamkp(spec: JobSpec, graph, labels, tracer):
    backend = spec.solver.split("-", 1)[1]
    result = qamkp(
        graph,
        spec.k,
        runtime_us=spec.runtime_us,
        solver=backend,
        seed=spec.seed,
        fallback=backend == "qpu",
        tracer=tracer,
    )
    answer = {
        "solver": spec.solver,
        "k": spec.k,
        "size": len(result.repaired),
        "vertices": _translate(result.repaired, labels),
        "gate_units": 0,
        "cost": result.cost,
        "feasible": result.feasible,
    }
    return answer, {"backend_used": result.info.get("backend_used", backend)}


def execute(job: dict[str, object]) -> tuple[int, str]:
    """Run one job record: ``(exit code, diagnostic message)``."""
    job_id = str(job["job_id"])
    spec = JobSpec.from_dict(dict(job["spec"]))
    checkpoint = Path(str(job["checkpoint"]))
    receipt = Path(str(job["receipt"]))

    tracer = Tracer()
    try:
        # "started" goes out before the hold: once the supervisor sees
        # it, this process is guaranteed to translate SIGINT into the
        # graceful suspend path below (the handler is installed).
        _emit({
            "event": "started",
            "job_id": job_id,
            "pid": os.getpid(),
            "solver": spec.solver,
            "resuming": CheckpointJournal.resumable(checkpoint),
        })
        hold_s = float(os.environ.get(HOLD_ENV, 0) or 0)
        if hold_s:  # chaos/test hook: pin the job in the running state
            time.sleep(hold_s)
        graph, labels = read_edge_list(spec.graph_path)
        if spec.solver == "qmkp" and spec.edits_path is not None:
            answer, extra = _solve_qmkp_dynamic(
                spec, graph, labels, job_id, checkpoint, tracer
            )
        elif spec.solver == "qmkp":
            answer, extra = _solve_qmkp(
                spec, graph, labels, job_id, checkpoint, tracer
            )
        elif spec.solver == "bs":
            answer, extra = _solve_bs(spec, graph, labels, job_id, tracer)
        else:
            answer, extra = _solve_qamkp(spec, graph, labels, tracer)
    except KeyboardInterrupt:
        # Graceful suspension: every completed probe is already fsynced
        # in the journal, so the job is resumable exactly where it was.
        _emit({
            "event": "suspended",
            "job_id": job_id,
            "checkpoint": str(checkpoint),
        })
        return 130, ""

    ledger = RunLedger.from_tracer(
        tracer,
        meta={"job_id": job_id, "spec": spec.as_dict()},
    )
    drift = ledger.verify(raise_on_drift=False)
    receipt_doc = {
        "job_id": job_id,
        "spec": spec.as_dict(),
        "answer": answer,
        **extra,
        "ledger": ledger.as_dict(),
    }
    receipt.parent.mkdir(parents=True, exist_ok=True)
    receipt.write_text(json.dumps(receipt_doc, indent=2, sort_keys=True) + "\n")
    _emit({
        "event": "result",
        "job_id": job_id,
        "answer": answer,
        **extra,
        "verified": not drift,
        "receipt": str(receipt),
    })
    if drift:
        return 3, "\n".join(f"ledger drift: {record}" for record in drift)
    return 0, ""


def run_job(job: dict[str, object]) -> int:
    """Run one job record and report its end with an ``exit`` event.

    The record's ``env`` overrides (chaos hooks) hold for this job
    only: the child outlives the job, the hooks must not.
    """
    overrides = dict(job.get("env") or {})
    os.environ.update(overrides)
    try:
        code, message = execute(job)
    except CheckpointError as exc:
        code, message = 2, f"error: checkpoint: {exc}"
    except (OSError, ValueError) as exc:
        code, message = 2, f"error: {exc}"
    finally:
        for key in overrides:
            os.environ.pop(key, None)
    _emit({
        "event": "exit",
        "job_id": str(job["job_id"]),
        "code": code,
        "message": message,
    })
    return code


def main() -> int:
    """Serve job records from stdin until EOF or a SIGINT."""
    try:
        for line in iter(sys.stdin.readline, ""):
            if run_job(json.loads(line)) == 130:
                return 130
    except KeyboardInterrupt:  # between jobs: nothing to suspend
        return 130
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
