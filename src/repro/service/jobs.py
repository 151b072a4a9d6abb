"""Job model for the solver service: specs, states, typed errors.

A :class:`JobSpec` is the caller-facing description of one solve
request — everything needed to reproduce the run bit-identically (the
graph file, ``k``, the solver backend, the seed).  The service wraps an
admitted spec in a :class:`Job`, which carries the runtime state
machine, the checkpoint/receipt artifact paths, and the caller's
anytime stream of :class:`IncumbentEvent`\\ s.

Every rejection the service can produce is a *typed* error — a full
queue raises :class:`BackpressureError`, an exhausted tenant budget
raises :class:`AdmissionError` — so callers distinguish "retry later"
from "your budget is gone" without parsing strings, and nothing is
ever silently dropped.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

__all__ = [
    "AdmissionError",
    "BackpressureError",
    "IncumbentEvent",
    "Job",
    "JobSpec",
    "SOLVERS",
    "ServiceError",
    "JOB_STATES",
]

#: Backends the service accepts; each maps onto an existing solver path.
SOLVERS = ("qmkp", "bs", "qamkp-sa", "qamkp-hybrid", "qamkp-qpu")

#: The job state machine.  ``queued -> running -> {done, failed,
#: suspended}``; a crashed-but-resumable job goes ``running -> queued``
#: again (its ``resumes`` counter increments).  ``suspended`` means the
#: service shut down gracefully with the job checkpointed on disk —
#: resubmitting the same spec with the same workdir resumes it.
JOB_STATES = ("queued", "running", "done", "failed", "suspended")


class ServiceError(RuntimeError):
    """Base class for solver-service failures."""


class BackpressureError(ServiceError):
    """Typed rejection: the bounded job queue is full.

    Carries ``capacity`` and ``depth`` so clients can implement
    informed backoff.  Raised at submission time — the queue never
    grows unboundedly and never drops an accepted job.
    """

    def __init__(self, capacity: int, depth: int) -> None:
        self.capacity = capacity
        self.depth = depth
        super().__init__(
            f"job queue is full ({depth}/{capacity}); retry after a "
            "completion or raise the queue capacity"
        )


class AdmissionError(ServiceError):
    """Typed rejection: the tenant's gate-unit budget pool is exhausted."""

    def __init__(self, tenant: str, budget: float, charged: float) -> None:
        self.tenant = tenant
        self.budget = budget
        self.charged = charged
        super().__init__(
            f"tenant {tenant!r} gate-unit budget exhausted "
            f"({charged:.0f}/{budget:.0f} charged)"
        )


@dataclass(frozen=True)
class JobSpec:
    """One solve request, JSON-round-trippable for the gateway's wire.

    ``name`` is an optional caller-chosen label; the chaos harness keys
    its fault plans on it, and it prefixes the job's artifact names.
    ``gate_deadline`` is a per-job :class:`~repro.resilience.DeadlineBudget`
    in gate units (qmkp only) — on expiry the job degrades to the
    classical branch search inside the solver, per the PR 5 semantics.
    ``edits_path`` turns the job into a *mutation job* (qmkp only): the
    worker runs an incremental session over the edit script
    (:mod:`repro.dynamic`), re-solving after every edit, with per-step
    checkpoints next to the job's journal path.
    """

    graph_path: str
    k: int = 2
    solver: str = "qmkp"
    seed: int | None = None
    tenant: str = "default"
    name: str | None = None
    gate_deadline: float | None = None
    runtime_us: float = 1000.0  # annealing backends' budget
    edits_path: str | None = None  # dynamic-graph mutation jobs (qmkp)

    def __post_init__(self) -> None:
        if self.solver not in SOLVERS:
            raise ValueError(
                f"unknown solver {self.solver!r}; expected one of {SOLVERS}"
            )
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.edits_path is not None and self.solver != "qmkp":
            raise ValueError(
                "edits_path (dynamic mutation jobs) requires solver='qmkp', "
                f"got {self.solver!r}"
            )

    def as_dict(self) -> dict[str, object]:
        return {
            "graph_path": str(self.graph_path),
            "k": self.k,
            "solver": self.solver,
            "seed": self.seed,
            "tenant": self.tenant,
            "name": self.name,
            "gate_deadline": self.gate_deadline,
            "runtime_us": self.runtime_us,
            "edits_path": (
                str(self.edits_path) if self.edits_path is not None else None
            ),
        }

    @classmethod
    def from_dict(cls, payload: dict[str, object]) -> "JobSpec":
        unknown = set(payload) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown job-spec field(s): {sorted(unknown)}")
        if "graph_path" not in payload:
            raise ValueError("job spec is missing 'graph_path'")
        return cls(**payload)

    def content_key(self) -> str:
        """Stable hash of the full spec content (hex, 16 chars).

        Two :class:`JobSpec`\\ s have the same key iff every field is
        equal, so the key identifies one reproducible run regardless of
        submission order or service restarts.
        """
        canonical = json.dumps(self.as_dict(), sort_keys=True)
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]

    def artifact_stem(self) -> str:
        """Base name for this spec's on-disk artifacts (journal, receipt).

        Content-keyed, *not* sequence-numbered: a persistent workdir may
        outlive many supervisors, and artifact names must never collide
        across restarts nor depend on submission order — resubmitting
        the same spec against the same workdir always finds the same
        checkpoint journal.
        """
        prefix = f"{self.name}-" if self.name else "job-"
        return prefix + self.content_key()


@dataclass(frozen=True)
class IncumbentEvent:
    """One verified feasible k-plex streamed to the caller mid-job.

    ``replayed`` marks incumbents re-announced while a resumed job
    replayed its checkpoint journal (the caller sees the current best
    again after a crash, never a silent regression).
    """

    job_id: str
    size: int
    threshold: int
    cumulative_gate_units: int
    cumulative_oracle_calls: int
    vertices: tuple[int, ...]
    replayed: bool = False

    def as_dict(self) -> dict[str, object]:
        return {
            "job_id": self.job_id,
            "size": self.size,
            "threshold": self.threshold,
            "cumulative_gate_units": self.cumulative_gate_units,
            "cumulative_oracle_calls": self.cumulative_oracle_calls,
            "vertices": list(self.vertices),
            "replayed": self.replayed,
        }


class Job:
    """An admitted request plus its runtime state — also the caller's handle.

    The submitting caller keeps the returned :class:`Job` and consumes
    :meth:`stream` (anytime incumbents, ending when the job settles)
    and :meth:`result_dict` (the final answer dict, or a raised
    :class:`ServiceError` on failure).  A duplicate submission attaches
    to the same handle, so any number of callers may do both.
    """

    def __init__(self, job_id: str, spec: JobSpec, workdir: Path) -> None:
        self.job_id = job_id
        self.spec = spec
        self.state = "queued"
        self.resumes = 0          # crash-resume count so far
        self.degraded_from: list[str] = []  # backends skipped by open breakers
        self.solver = spec.solver  # effective backend (after degradation)
        self.child_pid: int | None = None  # set on the child's "started"
        self.error: str | None = None
        self.result: dict[str, object] | None = None
        # Artifacts are content-keyed (never sequence-numbered): the
        # workdir may be shared across supervisor restarts, and a stale
        # journal must only ever be found by the spec that wrote it.
        # The supervisor runs at most one live job per spec, so no two
        # live jobs share a journal.
        stem = spec.artifact_stem()
        self.receipt_path = workdir / f"{stem}.receipt.json"
        self.checkpoint_path = workdir / f"{stem}.wal"
        self.queued_at = time.perf_counter()  # (re)entered the queue
        self.incumbents: list[IncumbentEvent] = []
        self._progress = asyncio.Event()  # replaced each time it fires
        self._done = asyncio.Event()

    # -- service-side transitions --------------------------------------
    def push_incumbent(self, event: IncumbentEvent) -> None:
        self.incumbents.append(event)
        self._progressed()

    def settle(self, state: str, error: str | None = None) -> None:
        """Terminal transition; ends every event stream exactly once."""
        if self._done.is_set():
            return
        self.state = state
        self.error = error
        self._done.set()
        self._progressed()

    def _progressed(self) -> None:
        self._progress.set()  # wakes every waiting stream
        self._progress = asyncio.Event()

    # -- caller-side API -----------------------------------------------
    @property
    def done(self) -> bool:
        return self._done.is_set()

    async def stream(self):
        """Yield every :class:`IncumbentEvent`, from the first, until
        the job settles."""
        seen = 0
        while True:
            while seen < len(self.incumbents):
                seen += 1
                yield self.incumbents[seen - 1]
            if self.done:
                return
            await self._progress.wait()

    async def result_dict(self) -> dict[str, object]:
        """Wait for the final answer; raises on failure/suspension."""
        await self._done.wait()
        if self.state == "done" and self.result is not None:
            return self.result
        raise ServiceError(
            f"job {self.job_id} settled as {self.state}"
            + (f": {self.error}" if self.error else "")
        )
