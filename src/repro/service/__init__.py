"""Solver-as-a-service: a supervised async job engine for qMKP/qaMKP.

This package turns the single-shot solver stack into a long-running
service with the robustness properties the rest of the repo already
provides per-run, lifted to the fleet level:

* **Admission control** — per-tenant gate-unit budget pools
  (:class:`~repro.service.queue.TenantPools`) and a bounded queue with
  a typed :class:`BackpressureError` instead of unbounded growth;
* **Crash-resume workers** — each worker slot runs its jobs in one
  long-lived runner subprocess, each job over a write-ahead
  :class:`~repro.resilience.CheckpointJournal`; a SIGKILLed runner's
  job resumes bit-identically in a fresh one;
* **Graceful degradation** — per-backend
  :class:`~repro.resilience.CircuitBreaker`\\ s route fresh jobs down
  the :data:`~repro.service.config.DEGRADATION` ladder when a backend
  is unhealthy;
* **Anytime streaming** — callers consume verified incumbents while
  the job runs (:meth:`Job.stream`);
* **Deterministic chaos** — :class:`ChaosPlan` scripts SIGKILL/SIGINT
  faults per job attempt, and the harness asserts resumed answers are
  byte-identical to undisturbed runs.

Quick start (in-process)::

    from repro.service import JobSpec, ServiceConfig, Supervisor

    async def main():
        async with Supervisor(ServiceConfig(workers=2)) as sup:
            job = sup.submit(JobSpec("graph.edges", k=2, seed=7))
            async for inc in job.stream():
                print("incumbent", inc.size)
            print(await job.result_dict())

Across processes, use the HTTP/SSE gateway (:mod:`repro.service.http`):
``qmkp serve WORKDIR --http HOST:PORT`` in one terminal,
``qmkp submit --url http://HOST:PORT GRAPH --wait`` in another.
"""

from .chaos import HOLD_ENV, ChaosPlan
from .config import DEGRADATION, ServiceConfig
from .jobs import (
    JOB_STATES,
    SOLVERS,
    AdmissionError,
    BackpressureError,
    IncumbentEvent,
    Job,
    JobSpec,
    ServiceError,
)
from .http import Gateway, GatewayClient, GatewayError
from .queue import JobQueue, TenantPools
from .sse import EventJournal
from .supervisor import Supervisor
from .worker import Worker

__all__ = [
    "AdmissionError",
    "BackpressureError",
    "ChaosPlan",
    "DEGRADATION",
    "EventJournal",
    "Gateway",
    "GatewayClient",
    "GatewayError",
    "HOLD_ENV",
    "IncumbentEvent",
    "JOB_STATES",
    "Job",
    "JobQueue",
    "JobSpec",
    "SOLVERS",
    "ServiceConfig",
    "ServiceError",
    "Supervisor",
    "TenantPools",
    "Worker",
]
