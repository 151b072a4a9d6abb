"""Worker slot: one long-lived runner child, fed one job at a time.

A :class:`Worker` is an asyncio task owned by the supervisor.  It pulls
jobs off the shared :class:`~repro.service.queue.JobQueue`, hands each
to the slot's :mod:`repro.service.runner` child as one JSON record on
the child's stdin, relays the child's JSON event stream (incumbents to
the caller's handle, the result onto the job), and hands the job's exit
code to the supervisor's crash policy.

The child is spawned on the slot's first dispatch and serves job after
job, so a job pays no interpreter start-up or imports.  It is still the
crash domain: a child killed mid-job is detected here as a negative
returncode and never takes the service down; the next dispatch spawns a
fresh child.  The worker task itself does no solving, so the only state
lost with a killed child is the probe in flight — everything else is in
the job's checkpoint journal.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import time
from pathlib import Path

import repro

from ..perf.shared import PUBLISH_KILL_ENV
from ..resilience.checkpoint import CRASH_ENV, SIGINT_ENV
from .chaos import HOLD_ENV
from .jobs import IncumbentEvent, Job

__all__ = ["Worker"]

#: Limit for one protocol line from the child (vertices lists are small;
#: this is just a guard against a runaway child flooding the parent).
_LINE_LIMIT = 1 << 20

#: Bytes of the child's stderr kept for crash diagnostics.
_STDERR_TAIL = 1 << 13

#: Chaos hooks travel in each job record; inherited from the service's
#: environment they would fire in every job the child runs.
_HOOK_ENVS = (CRASH_ENV, SIGINT_ENV, PUBLISH_KILL_ENV, HOLD_ENV)


class Worker:
    """One worker slot of the supervisor's pool."""

    def __init__(self, name: str, supervisor) -> None:
        self.name = name
        self.supervisor = supervisor
        self.current: Job | None = None
        self.proc: asyncio.subprocess.Process | None = None
        self._started = False  # the current job said "started"
        self._stderr = bytearray()
        self._stderr_task: asyncio.Future | None = None
        self._spawned_at: float | None = None  # until the first "started"
        self._dispatched_at = 0.0
        self._first_live = False  # a live incumbent arrived this dispatch

    async def run(self) -> None:
        """Main loop: drain the queue until it closes, then end the child.

        The loop itself must survive anything one job can throw at it —
        a missing interpreter, an over-limit protocol line, a bug in the
        relay — so :meth:`_execute` runs under a guard that settles the
        job as failed (callers awaiting it never hang) and keeps this
        worker slot serving.
        """
        try:
            while True:
                job = await self.supervisor.queue.get()
                if job is None:
                    return
                self.current = job
                try:
                    await self._execute(job)
                except Exception as exc:  # noqa: BLE001 — the slot must live
                    await self._abort(job, exc)
                finally:
                    self.current = None
                    self._started = False
        finally:
            await self.close()

    async def close(self) -> None:
        """End the slot's child: EOF on its stdin, then reap it."""
        proc = self.proc
        if proc is None:
            return
        if proc.returncode is None:
            proc.stdin.close()
        await self._reap()

    async def _reap(self) -> str:
        """Wait for the child to exit; returns its stderr tail."""
        proc, self.proc = self.proc, None
        await proc.wait()
        await self._stderr_task
        return self._stderr.decode(errors="replace")

    def interrupt(self) -> None:
        """Shutdown sweep: SIGINT the child once its job said "started".

        Before that, the child may not have its SIGINT handler in place;
        the "started" relay below delivers the signal instead.
        """
        proc = self.proc
        if self._started and proc is not None and proc.returncode is None:
            proc.send_signal(signal.SIGINT)

    async def _abort(self, job: Job, exc: Exception) -> None:
        """Settle a job whose *relay* (not the solver) blew up."""
        sup = self.supervisor
        if self.proc is not None:
            if self.proc.returncode is None:
                self.proc.kill()
            await self._reap()
        sup.tracer.add("service_worker_errors", 1)
        if not job.done:
            sup.tracer.add("service_jobs_failed", 1)
            job.settle(
                "failed",
                f"worker {self.name} internal error: "
                f"{type(exc).__name__}: {exc}",
            )

    # ------------------------------------------------------------------
    async def _spawn(self) -> None:
        sup = self.supervisor
        env = dict(os.environ)
        # The child must import the same repro package as the parent,
        # regardless of how the parent found it.
        src = str(Path(repro.__file__).resolve().parents[1])
        existing = env.get("PYTHONPATH", "")
        env["PYTHONPATH"] = src + (os.pathsep + existing if existing else "")
        for key in _HOOK_ENVS:
            env.pop(key, None)
        self._spawned_at = time.perf_counter()
        self.proc = await asyncio.create_subprocess_exec(
            sup.config.python,
            "-m",
            "repro.service.runner",
            stdin=asyncio.subprocess.PIPE,
            stdout=asyncio.subprocess.PIPE,
            stderr=asyncio.subprocess.PIPE,
            env=env,
            limit=_LINE_LIMIT,
        )
        self._stderr = bytearray()
        self._stderr_task = asyncio.ensure_future(
            self._drain_stderr(self.proc.stderr)
        )

    async def _drain_stderr(self, stream: asyncio.StreamReader) -> None:
        # Read continuously, so a chatty child never blocks on a full
        # pipe; keep only the tail a crash diagnosis needs.
        while chunk := await stream.read(1 << 16):
            self._stderr += chunk
            del self._stderr[:-_STDERR_TAIL]

    def _record(self, job: Job) -> bytes:
        """The job as one stdin line, per-job policy included."""
        sup = self.supervisor
        shared = sup.shared_cache_dir
        chaos = sup.chaos
        return (json.dumps({
            "job_id": job.job_id,
            "spec": {**job.spec.as_dict(), "solver": job.solver},
            "checkpoint": str(job.checkpoint_path),
            "receipt": str(job.receipt_path),
            "shared_cache_dir": str(shared) if shared is not None else None,
            "env": chaos.env_for(job.spec.name, job.resumes) if chaos else {},
        }, sort_keys=True) + "\n").encode("utf-8")

    async def _execute(self, job: Job) -> None:
        sup = self.supervisor
        if sup.suspending:
            # The shutdown sweep only SIGINTs children that already
            # run a job; a job dequeued around the sweep must not start
            # a fresh solve that would block the suspend.
            sup.tracer.add("service_jobs_suspended", 1)
            job.settle("suspended", "service shut down before the job started")
            return
        sup.resolve_backend(job)
        if job.state == "failed":
            return  # every degradation rung was breaker-rejected
        job.state = "running"
        job.worker = self.name
        sup.tracer.observe(
            "service_queue_wait_s", time.perf_counter() - job.queued_at
        )
        sup.mark_busy(+1)
        try:
            # The record is built after backend resolution so the child
            # sees the effective (possibly degraded) solver.
            record = self._record(job)
            outcome = await self._dispatch(job, record)
            if outcome is None:
                # The warm child had died while idle: not the job's
                # fault, so a fresh child takes it, uncharged.
                outcome = await self._dispatch(job, record)
        finally:
            sup.mark_busy(-1)
        await sup.on_exit(job, *outcome)

    async def _dispatch(self, job: Job, record: bytes) -> tuple[int, str] | None:
        """Run ``job`` on the slot's child: ``(exit code, diagnostics)``.

        ``None`` means a warm child exited before it took the job.
        """
        warm = self.proc is not None and self.proc.returncode is None
        if self.proc is not None and not warm:
            await self._reap()  # exited while idle; never charged
        if not warm:
            await self._spawn()
        proc = self.proc
        self._started = False
        self._first_live = False
        self._dispatched_at = time.perf_counter()
        try:
            proc.stdin.write(record)
            await proc.stdin.drain()
        except ConnectionError:
            pass  # the child is gone; its stdout EOF below says so
        try:
            while line := await proc.stdout.readline():
                end = self._handle_line(job, line)
                if end is not None:
                    self._started = False
                    self.supervisor.tracer.observe(
                        "service_solve_s",
                        time.perf_counter() - self._dispatched_at,
                    )
                    if end[0] == 130:
                        await self._reap()  # a suspended child exits
                    return end
        except asyncio.CancelledError:
            proc.kill()  # nobody relays this job any more; end it
            raise
        # EOF mid-job: the child died.
        stderr = await self._reap()
        if warm and not self._started:
            return None
        return proc.returncode, stderr

    def _handle_line(self, job: Job, line: bytes) -> tuple[int, str] | None:
        """Relay one protocol line; the job's end as ``(code, message)``."""
        sup = self.supervisor
        try:
            payload = json.loads(line)
            event = payload.get("event")
            if event == "incumbent":
                incumbent = IncumbentEvent(
                    job_id=job.job_id,
                    size=int(payload["size"]),
                    threshold=int(payload["threshold"]),
                    cumulative_gate_units=int(
                        payload["cumulative_gate_units"]
                    ),
                    cumulative_oracle_calls=int(
                        payload["cumulative_oracle_calls"]
                    ),
                    vertices=tuple(payload["vertices"]),
                    replayed=bool(payload.get("replayed", False)),
                )
                job.push_incumbent(incumbent)
                sup.tracer.add("service_incumbents_streamed", 1)
                if not incumbent.replayed and not self._first_live:
                    self._first_live = True
                    sup.tracer.observe(
                        "service_first_incumbent_s",
                        time.perf_counter() - self._dispatched_at,
                    )
            elif event == "result":
                job.result = {
                    "answer": payload["answer"],
                    "verified": bool(payload.get("verified", False)),
                    "receipt": payload.get("receipt"),
                    "resumed_probes": payload.get("resumed_probes", 0),
                }
                if "cache" in payload:
                    job.result["cache"] = payload["cache"]
            elif event == "started":
                # Once this is seen the child's SIGINT handler is
                # installed: a suspend signal from here on is graceful.
                job.child_pid = int(payload["pid"])
                self._started = True
                if self._spawned_at is not None:
                    sup.tracer.observe(
                        "service_spawn_s", time.perf_counter() - self._spawned_at
                    )
                    self._spawned_at = None
                if sup.suspending:
                    # The job started after the shutdown sweep, so the
                    # sweep's SIGINT missed it — deliver it now, at the
                    # first moment it is guaranteed to land gracefully.
                    self.interrupt()
            elif event == "exit":
                return int(payload["code"]), str(payload.get("message", ""))
            # "suspended" is informational; the exit code is the
            # authoritative signal for the supervisor's policy.
        except (KeyError, TypeError, ValueError):
            # A crashing child can tear its final line mid-write (bad
            # JSON, same as the WAL) or emit a field the relay cannot
            # coerce — count it, never kill the worker over it.
            sup.tracer.add("service_protocol_errors", 1)
        return None
