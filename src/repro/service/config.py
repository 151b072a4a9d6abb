"""Service configuration: pool sizes, admission, degradation ladder."""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from pathlib import Path

from .jobs import SOLVERS

__all__ = ["DEGRADATION", "ServiceConfig"]

#: Per-backend degradation ladder (the PR 1 cascade generalised to the
#: service's job level): when a backend's circuit breaker is open, a
#: *fresh* job submitted against it runs on the next rung instead of
#: failing the request.  The classical branch search is the terminal
#: rung — pure graph code that cannot crash a backend.  Resumed jobs
#: never re-degrade: bit-identical resume requires the original backend.
DEGRADATION = {
    "qmkp": "bs",
    "qamkp-qpu": "qamkp-sa",
    "qamkp-hybrid": "qamkp-sa",
    "qamkp-sa": "bs",
}


@dataclass(frozen=True)
class ServiceConfig:
    """Knobs of one :class:`~repro.service.Supervisor` instance.

    Parameters
    ----------
    workers:
        Worker-slot count; each slot keeps one runner subprocess and
        runs one job at a time in it.
    queue_capacity:
        Bound of the fresh-submission lane (typed backpressure beyond).
    max_resumes:
        How many crash-resumes one job gets before it is failed for
        good; each resume replays the checkpoint journal bit-identically.
    breaker_failure_threshold, breaker_cooldown_calls:
        Per-backend :class:`~repro.resilience.CircuitBreaker` shape
        (consecutive job failures to open; rejected jobs to half-open).
    tenant_budgets:
        Gate-unit allowance per tenant (absent tenant = unlimited).
    workdir:
        Directory for per-job checkpoint journals and ledger receipts
        (and the gateway's event journals).
    http_send_queue:
        Per-SSE-connection bound on buffered events.  A reader slow
        enough to fall this many events behind is evicted (connection
        closed, ``service_slow_client_evictions`` counted) instead of
        backing the supervisor up; it can reconnect with
        ``Last-Event-ID`` and replay what it missed from the journal.
    http_heartbeat_s:
        Idle interval after which an SSE connection emits a comment
        heartbeat, so proxies/clients can distinguish a quiet solve
        from a dead gateway.
    http_write_timeout_s:
        Deadline for flushing one SSE frame to a client socket; a
        stalled reader that blocks the write this long is evicted.
    python:
        Interpreter used for the runner subprocesses.
    """

    workers: int = 2
    queue_capacity: int = 8
    max_resumes: int = 3
    breaker_failure_threshold: int = 3
    breaker_cooldown_calls: int = 2
    tenant_budgets: dict[str, float] = field(default_factory=dict)
    workdir: str | Path | None = None
    http_send_queue: int = 64
    http_heartbeat_s: float = 10.0
    http_write_timeout_s: float = 30.0
    python: str = sys.executable

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.queue_capacity < 1:
            raise ValueError(
                f"queue_capacity must be >= 1, got {self.queue_capacity}"
            )
        if self.max_resumes < 0:
            raise ValueError(
                f"max_resumes must be >= 0, got {self.max_resumes}"
            )
        for tenant, units in self.tenant_budgets.items():
            if not units > 0:
                raise ValueError(
                    f"tenant {tenant!r} budget must be > 0, got {units}"
                )
        if self.http_send_queue < 1:
            raise ValueError(
                f"http_send_queue must be >= 1, got {self.http_send_queue}"
            )
        if not self.http_heartbeat_s > 0 or not self.http_write_timeout_s > 0:
            raise ValueError(
                "http_heartbeat_s and http_write_timeout_s must be > 0"
            )

    def degraded(self, solver: str) -> str | None:
        """Next rung down from ``solver`` (None at the bottom)."""
        rung = DEGRADATION.get(solver)
        if rung is not None and rung not in SOLVERS:  # pragma: no cover
            raise ValueError(f"degradation target {rung!r} is not a solver")
        return rung
