"""Deterministic chaos plans for the service's kill-resume harness.

A :class:`ChaosPlan` scripts faults against *named* jobs (the
:attr:`~repro.service.jobs.JobSpec.name` field), keyed by attempt
number, by injecting the checkpoint layer's deterministic signal hooks
into the job's environment (the job record's ``env``, which the runner
applies for that job only):

* ``kills[name] = [2, 3]`` — attempt 0 SIGKILLs itself after its 2nd
  journaled probe, attempt 1 (the resume) after its 3rd *cumulative*
  probe record, attempt 2 runs clean.  Counts are cumulative because
  :class:`~repro.resilience.CheckpointJournal` counts resumed records
  toward ``records_written`` — so each entry must exceed the previous
  one for the kill to land on a *live* probe.
* ``interrupts[name] = [1]`` — attempt 0 receives SIGINT after its 1st
  probe (the graceful path: journal flushed, exit 130, job suspended).
* ``holds[name] = seconds`` — the runner sleeps before solving, pinning
  the job in the running state so shutdown/drain paths can be tested
  without races.
* ``publish_kills[name] = [1]`` — attempt 0 SIGKILLs itself in the
  middle of its 1st shared-cache publish: after the temp segment is
  fsynced, *before* the atomic rename
  (:data:`repro.perf.shared.PUBLISH_KILL_ENV`).  Exercises the store's
  crash-safety contract — readers see the old segment or nothing,
  never a torn table, and fall back to local enumeration.

The gateway smoke adds **connection-level** faults, consumed by the
client-side harness (:meth:`ChaosPlan.stream_faults`) rather than the
worker environment — the network front end's fault domain is the
connection, not the subprocess:

* ``conn_drops[name] = [2, 5]`` — the client tears its SSE connection
  down right after consuming the 2nd, then (post-reconnect) the 5th
  event id; the harness then asserts ``Last-Event-ID`` resume closes
  every gap without duplicates.
* ``stalled_readers[name] = seconds`` — the client connects and then
  stops reading for this long, which must trip the gateway's
  slow-reader eviction rather than stall the supervisor.
* ``gateway_kills[name] = [3]`` — the harness SIGKILLs the *gateway
  process* after the client consumed the 3rd event; the restarted
  gateway must replay the journal from disk and finish the stream.

Everything is seeded/scripted — no wall-clock randomness — so a chaos
run's kill points, and therefore its resumed answers, are exactly
reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..perf.shared import PUBLISH_KILL_ENV
from ..resilience.checkpoint import CRASH_ENV, SIGINT_ENV

__all__ = ["ChaosPlan", "HOLD_ENV"]

#: Test hook read by the runner: sleep this many seconds before solving.
HOLD_ENV = "REPRO_RUNNER_HOLD_S"


@dataclass(frozen=True)
class ChaosPlan:
    """Scripted per-job fault schedules (see module docstring)."""

    kills: dict[str, list[int]] = field(default_factory=dict)
    interrupts: dict[str, list[int]] = field(default_factory=dict)
    holds: dict[str, float] = field(default_factory=dict)
    publish_kills: dict[str, list[int]] = field(default_factory=dict)
    # Connection-level faults (gateway harness; not worker env):
    conn_drops: dict[str, list[int]] = field(default_factory=dict)
    stalled_readers: dict[str, float] = field(default_factory=dict)
    gateway_kills: dict[str, list[int]] = field(default_factory=dict)

    def env_for(self, name: str | None, attempt: int) -> dict[str, str]:
        """Environment overrides for ``name``'s ``attempt``-th run.

        Returns an empty dict for unplanned jobs/attempts, so the
        worker can send it unconditionally in the job record.
        """
        env: dict[str, str] = {}
        if name is None:
            return env
        schedule = self.kills.get(name, [])
        if attempt < len(schedule):
            env[CRASH_ENV] = str(schedule[attempt])
        schedule = self.interrupts.get(name, [])
        if attempt < len(schedule):
            env[SIGINT_ENV] = str(schedule[attempt])
        schedule = self.publish_kills.get(name, [])
        if attempt < len(schedule):
            env[PUBLISH_KILL_ENV] = str(schedule[attempt])
        hold = self.holds.get(name)
        if hold:
            env[HOLD_ENV] = str(hold)
        return env

    def stream_faults(self, name: str | None) -> dict[str, object]:
        """Connection-fault schedule for ``name``'s event stream.

        Returned keys: ``drop_after`` (sorted event ids after which the
        client tears the connection down, each consumed once),
        ``stall_s`` (seconds a stalled-reader connection stays silent;
        0 = no stall scenario), ``kill_after`` (event ids after which
        the harness SIGKILLs the gateway process).  Client-side
        harnesses consume this; nothing here touches the worker env.
        """
        if name is None:
            return {"drop_after": [], "stall_s": 0.0, "kill_after": []}
        return {
            "drop_after": sorted(self.conn_drops.get(name, [])),
            "stall_s": float(self.stalled_readers.get(name, 0.0)),
            "kill_after": sorted(self.gateway_kills.get(name, [])),
        }
