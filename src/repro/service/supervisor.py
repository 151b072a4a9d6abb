"""The service brain: worker pool, crash-resume policy, degradation.

:class:`Supervisor` owns the bounded :class:`~repro.service.queue.JobQueue`,
per-tenant admission pools, one :class:`~repro.resilience.CircuitBreaker`
per backend, and ``config.workers`` worker slots.  Its invariants:

* **Nothing is lost.**  A worker's runner child killed mid-job
  (negative returncode) is detected here; if the job has resumes left
  it goes back through the queue's priority lane and the next worker
  resumes it **bit-identically** from its write-ahead checkpoint
  journal.
* **Nothing is silent.**  A full queue raises a typed
  :class:`~repro.service.jobs.BackpressureError` at submission; a dry
  tenant pool raises :class:`~repro.service.jobs.AdmissionError`; a job
  out of resumes settles ``failed`` with the crash recorded.
* **Degrade, don't fail.**  A backend whose breaker is open routes
  fresh jobs down the degradation ladder
  (:data:`~repro.service.config.DEGRADATION`); resumed jobs keep their
  original backend because bit-identical resume requires it.
* **Shutdown checkpoints.**  ``shutdown(drain=False)`` SIGINTs
  in-flight children — they flush their journals and report 130 — and
  settles them ``suspended``; resubmitting the same spec against the
  same workdir resumes where they stopped.  Idle children get EOF on
  stdin; both shutdown paths return only once every child is reaped.

Every counter lives in the supervisor's :class:`~repro.obs.Tracer`
registry (``service_*``, plus the breakers' ``breaker_*`` instruments)
and renders as JSON or Prometheus text via :meth:`Supervisor.render_metrics`.
"""

from __future__ import annotations

import asyncio
import tempfile
import time
from pathlib import Path

from ..obs import Tracer
from ..resilience import CircuitBreaker
from ..resilience.checkpoint import CheckpointJournal
from .chaos import ChaosPlan
from .config import ServiceConfig
from .jobs import Job, JobSpec
from .queue import JobQueue, TenantPools
from .worker import Worker

__all__ = ["Supervisor"]


class Supervisor:
    """Supervised async job engine over the qMKP/qaMKP solver stack."""

    def __init__(
        self,
        config: ServiceConfig | None = None,
        chaos: ChaosPlan | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        self.config = config or ServiceConfig()
        self.workdir = Path(
            self.config.workdir
            if self.config.workdir is not None
            else tempfile.mkdtemp(prefix="repro-service-")
        )
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.shared_cache_dir: Path | None = None
        if self.config.shared_cache_dir is not None:
            self.shared_cache_dir = Path(self.config.shared_cache_dir)
            self.shared_cache_dir.mkdir(parents=True, exist_ok=True)
        self.tracer = tracer or Tracer()
        self.queue = JobQueue(self.config.queue_capacity)
        self.tenants = TenantPools(self.config.tenant_budgets)
        self.chaos = chaos
        self.jobs: dict[str, Job] = {}
        self._by_key: dict[str, Job] = {}  # content_key -> latest job
        self._breakers: dict[str, CircuitBreaker] = {}
        self._workers: list[Worker] = []
        self._tasks: list[asyncio.Task] = []
        self._job_seq = 0
        self._suspending = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Start the worker slots (idempotent).

        A slot spawns its runner child on its first dispatch, so an
        idle service runs no children.
        """
        if self._tasks:
            return
        for i in range(self.config.workers):
            worker = Worker(f"worker-{i}", self)
            self._workers.append(worker)
            self._tasks.append(asyncio.ensure_future(worker.run()))

    async def drain(self) -> None:
        """Stop intake, finish everything queued and in flight, and
        reap every runner child."""
        self.queue.close()
        self._update_depth()
        if self._tasks:
            await asyncio.gather(*self._tasks)
        self._tasks = []

    async def shutdown(self, drain: bool = True) -> None:
        """Stop the service.

        ``drain=True`` finishes all admitted work first.  ``drain=False``
        is the graceful-suspend path: queued-but-unstarted jobs settle
        ``suspended`` immediately, in-flight children get SIGINT (they
        flush their checkpoint journals and report 130) and settle
        ``suspended`` with their journals resumable on disk.  Returns
        once every runner child has exited and been reaped.
        """
        if drain:
            await self.drain()
            return
        self._suspending = True
        pending = self.queue.drain_pending()
        self.queue.close()
        for job in pending:
            self.tracer.add("service_jobs_suspended", 1)
            job.settle("suspended", "service shut down before the job started")
        for worker in self._workers:
            worker.interrupt()
        if self._tasks:
            await asyncio.gather(*self._tasks)
        self._tasks = []
        self._update_depth()

    @property
    def suspending(self) -> bool:
        """True once a non-drain shutdown began: workers stop spawning
        children and suspend anything they dequeue instead."""
        return self._suspending

    async def __aenter__(self) -> "Supervisor":
        await self.start()
        return self

    async def __aexit__(self, *exc) -> None:
        await self.drain()

    # ------------------------------------------------------------------
    # Submission (admission control)
    # ------------------------------------------------------------------
    def submit(self, spec: JobSpec) -> Job:
        """Admit one request; returns the caller's :class:`Job` handle.

        Raises :class:`~repro.service.jobs.AdmissionError` when the
        tenant's gate-unit pool is dry and
        :class:`~repro.service.jobs.BackpressureError` when the bounded
        queue is full — both *before* any state is created, so a
        rejected submission leaves no trace to clean up.
        """
        try:
            self.tenants.admit(spec.tenant)
        except Exception:
            self.tracer.add("service_jobs_rejected_admission", 1)
            raise
        job_id = f"job-{self._job_seq:04d}" + (
            f"-{spec.name}" if spec.name else ""
        )
        job = Job(job_id, spec, self.workdir, self._artifact_stem(spec))
        try:
            self.queue.submit(job)
        except Exception:
            self.tracer.add("service_jobs_rejected_backpressure", 1)
            raise
        self._job_seq += 1
        self.jobs[job_id] = job
        self._by_key[spec.content_key()] = job
        self.tracer.add("service_jobs_submitted", 1)
        self._update_depth()
        return job

    def submit_idempotent(self, spec: JobSpec) -> tuple[Job, bool]:
        """Admit ``spec`` exactly once; duplicate submissions attach.

        The network front end's submission semantics: a client retrying
        a timed-out ``POST`` must never double-solve.  Keyed on
        :meth:`JobSpec.content_key`, so two byte-identical specs are one
        job:

        * a **live** job with this key → return it (``replayed=True``);
        * a job that settled **done** → return it, so the retrier gets
          the finished answer (``replayed=True``);
        * settled ``failed`` / ``suspended``, or no job → a fresh
          :meth:`submit` (``replayed=False``).  A suspended job's fresh
          submission resumes from its content-keyed checkpoint journal,
          which is exactly the restart-survival contract.

        Replays never consume queue capacity or tenant admission — the
        original submission already paid both.
        """
        key = spec.content_key()
        existing = self._by_key.get(key)
        if existing is not None and (
            not existing.done or existing.state == "done"
        ):
            self.tracer.add("service_jobs_replayed", 1)
            return existing, True
        return self.submit(spec), False

    def _artifact_stem(self, spec: JobSpec) -> str:
        """Artifact basename for ``spec``, unique among live jobs.

        The stem is content-keyed (see :meth:`JobSpec.artifact_stem`) so
        checkpoints survive supervisor restarts and never collide across
        different specs; two *concurrently live* submissions of an
        identical spec must still not share a journal, so duplicates get
        a deterministic ``-dupN`` suffix.
        """
        stem = spec.artifact_stem()
        live = {
            job.checkpoint_path.name
            for job in self.jobs.values()
            if not job.done
        }
        candidate, dup = stem, 1
        while f"{candidate}.wal" in live:
            dup += 1
            candidate = f"{stem}-dup{dup}"
        return candidate

    # ------------------------------------------------------------------
    # Worker callbacks
    # ------------------------------------------------------------------
    def breaker(self, backend: str) -> CircuitBreaker:
        """Get-or-create the shared breaker for ``backend``."""
        existing = self._breakers.get(backend)
        if existing is None:
            existing = CircuitBreaker(
                failure_threshold=self.config.breaker_failure_threshold,
                cooldown_calls=self.config.breaker_cooldown_calls,
                name=backend,
            ).bind(self.tracer)
            self._breakers[backend] = existing
        return existing

    def resolve_backend(self, job: Job) -> None:
        """Route ``job`` around open breakers down the degradation ladder.

        Resumed jobs keep their backend: a journal replays bit-identically
        only against the configuration that wrote it.
        """
        if job.resumes > 0:
            return
        while not self.breaker(job.solver).allow():
            rung = self.config.degraded(job.solver)
            if rung is None:
                self.tracer.add("service_jobs_failed", 1)
                job.settle(
                    "failed",
                    f"backend {job.solver!r} circuit is open and no "
                    "degradation rung remains",
                )
                return
            self.tracer.add("service_jobs_degraded", 1)
            job.degraded_from.append(job.solver)
            job.solver = rung

    def mark_busy(self, delta: int) -> None:
        self.tracer.registry.gauge(
            "service_workers_busy", help="worker slots currently running a job"
        ).inc(delta)
        self._update_depth()

    def _update_depth(self) -> None:
        self.tracer.registry.gauge(
            "service_queue_depth", help="jobs queued (both lanes)"
        ).set(self.queue.depth)

    def record_cache_stats(self, stats: dict) -> None:
        """Fold one finished worker's `MarkedSetCache.stats()` into
        fleet-level ``service_cache_*`` gauges.

        Each job's cache, and its counters, live only as long as the
        job in the runner child; this is the only place they outlive
        it, so shared-tier effectiveness is observable on
        ``/v1/metrics``.  Gauges (not counters) on purpose: the
        ledger's registry cross-check covers counters only, and these
        totals aggregate *other* processes' ledgers — they must not be
        claimed against this tracer's spans.
        """
        for key in (
            "hits", "misses", "patches", "reused_partitions",
            "shared_hits", "shared_misses", "shared_publishes",
        ):
            if key in stats:
                self.tracer.registry.gauge(
                    f"service_cache_{key}",
                    help="fleet aggregate of per-worker MarkedSetCache "
                    f"{key} (summed over finished jobs)",
                ).inc(float(stats[key]))

    async def on_exit(self, job: Job, returncode: int, stderr: str) -> None:
        """Apply the exit policy for one finished job.

        ``returncode`` is the code the runner reported for the job, or
        the child's own returncode when it died mid-job (negative for a
        signal); ``stderr`` is the job's diagnostic text.
        """
        if returncode == 0 and job.result is not None:
            self.breaker(job.solver).record_success()
            answer = job.result.get("answer", {})
            self.tenants.charge(
                job.spec.tenant, float(answer.get("gate_units", 0) or 0)
            )
            self.tracer.add("service_jobs_completed", 1)
            if job.result.get("cache"):
                self.record_cache_stats(job.result["cache"])
            if job.result.get("resumed_probes"):
                self.tracer.add(
                    "service_probes_resumed", int(job.result["resumed_probes"])
                )
            # A finished job's journal holds no resumable work; leaving
            # it behind in a persistent workdir would only shadow a
            # later resubmission of the same spec.  The receipt stays.
            job.checkpoint_path.unlink(missing_ok=True)
            job.settle("done")
            return
        if returncode == 130:
            # Graceful SIGINT (drain or operator): journal flushed,
            # resumable on disk.  Not a backend failure.
            self.tracer.add("service_jobs_suspended", 1)
            job.settle("suspended")
            return
        if returncode < 0:
            # The crash domain did its job: the worker child died (e.g.
            # SIGKILL) but the journal survived.
            self.tracer.add("service_worker_crashes", 1)
            self.breaker(job.solver).record_failure()
            resumable = CheckpointJournal.resumable(job.checkpoint_path)
            if self._suspending:
                if resumable:
                    self.tracer.add("service_jobs_suspended", 1)
                    job.settle("suspended", "crashed during service suspend")
                else:
                    self.tracer.add("service_jobs_failed", 1)
                    job.settle(
                        "failed", f"worker killed by signal {-returncode} "
                        "during service suspend"
                    )
                return
            if job.resumes < self.config.max_resumes:
                # A zero-length / torn-header journal means the kill
                # landed before the first probe: the "resume" is then a
                # deterministic fresh start — same guarantee, zero work
                # replayed.
                job.resumes += 1
                self.tracer.add("service_jobs_resumed", 1)
                job.queued_at = time.perf_counter()
                self.queue.requeue(job)
                self._update_depth()
                return
            self.tracer.add("service_jobs_failed", 1)
            job.settle(
                "failed",
                f"worker killed by signal {-returncode}; resume budget "
                f"({self.config.max_resumes}) exhausted",
            )
            return
        # Nonzero exit: solver error or ledger drift — fail loudly.
        self.breaker(job.solver).record_failure()
        self.tracer.add("service_jobs_failed", 1)
        tail = stderr.strip().splitlines()[-1] if stderr.strip() else ""
        job.settle(
            "failed", f"worker exited {returncode}" + (f": {tail}" if tail else "")
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def render_metrics(self, fmt: str = "prom") -> str:
        """Service metrics as Prometheus text (``prom``) or JSON."""
        if fmt == "prom":
            return self.tracer.registry.render_prometheus()
        if fmt == "json":
            import json

            return json.dumps(
                self.tracer.registry.as_dict(), indent=2, sort_keys=True
            )
        raise ValueError(f"unknown metrics format {fmt!r}")

    def stats(self) -> dict[str, object]:
        """One-shot service snapshot (states, tenants, breakers)."""
        states: dict[str, int] = {}
        for job in self.jobs.values():
            states[job.state] = states.get(job.state, 0) + 1
        return {
            "jobs": states,
            "queue_depth": self.queue.depth,
            "tenants": self.tenants.as_dict(),
            "breakers": {
                name: breaker.state
                for name, breaker in sorted(self._breakers.items())
            },
        }
