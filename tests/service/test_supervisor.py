"""End-to-end supervisor tests: real worker subprocesses, scripted chaos.

These exercise the full service stack — submit, worker subprocess,
JSON event relay, crash policy — against tiny graphs so each job is a
sub-second solve.  Chaos tests use the deterministic
``QMKP_CRASH_AFTER_PROBES`` / ``QMKP_SIGINT_AFTER_PROBES`` hooks, so
every kill lands at an exact journal record and the asserted
bit-identical resumes are reproducible.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.core import qmkp
from repro.datasets import figure1_graph
from repro.graphs import gnm_random_graph, read_edge_list, write_edge_list
from repro.kplex import maximum_kplex
from repro.service import (
    AdmissionError,
    BackpressureError,
    ChaosPlan,
    JobSpec,
    ServiceConfig,
    ServiceError,
    Supervisor,
    Worker,
)


@pytest.fixture
def graph_file(tmp_path):
    path = tmp_path / "fig1.edges"
    write_edge_list(figure1_graph(), path)
    return str(path)


@pytest.fixture
def multi_probe_graph_file(tmp_path):
    """Needs three qMKP probes, so kills after probe 1 land mid-search."""
    path = tmp_path / "gnm.edges"
    write_edge_list(gnm_random_graph(7, 10, seed=1), path)
    return str(path)


def _config(tmp_path, **kwargs) -> ServiceConfig:
    kwargs.setdefault("workdir", str(tmp_path / "work"))
    return ServiceConfig(**kwargs)


async def _events(job):
    return [event async for event in job.stream()]


async def _solve(supervisor: Supervisor, spec: JobSpec):
    job = supervisor.submit(spec)
    events = [event async for event in job.stream()]
    result = await job.result_dict()
    return job, events, result


class TestEndToEnd:
    def test_answers_match_direct_solves(self, graph_file, tmp_path):
        async def scenario():
            async with Supervisor(_config(tmp_path, workers=2)) as sup:
                q, b = await asyncio.gather(
                    _solve(sup, JobSpec(graph_file, k=2, seed=7, name="q")),
                    _solve(sup, JobSpec(graph_file, k=2, solver="bs", name="b")),
                )
            return q, b, sup

        (qjob, qevents, qres), (bjob, _, bres), sup = asyncio.run(scenario())
        direct = qmkp(figure1_graph(), 2, rng=np.random.default_rng(7))
        assert qres["answer"]["size"] == direct.size
        assert qres["answer"]["gate_units"] == direct.gate_units
        assert qres["answer"]["oracle_calls"] == direct.oracle_calls
        assert bres["answer"]["size"] == maximum_kplex(figure1_graph(), 2).size
        # Every job carries a reconciled ledger receipt.
        assert qres["verified"] and bres["verified"]
        # The anytime stream ends with the final incumbent.
        assert qevents and qevents[-1].size == qres["answer"]["size"]
        counters = sup.tracer.registry.as_dict()["counters"]
        assert counters["service_jobs_completed"] == 2
        assert "service_worker_crashes" not in counters

    def test_result_dict_raises_on_failure(self, tmp_path):
        async def scenario():
            async with Supervisor(_config(tmp_path, workers=1)) as sup:
                job = sup.submit(JobSpec(str(tmp_path / "missing.edges")))
                with pytest.raises(ServiceError, match="failed"):
                    await job.result_dict()
                return job, sup

        job, sup = asyncio.run(scenario())
        assert job.state == "failed"
        counters = sup.tracer.registry.as_dict()["counters"]
        assert counters["service_jobs_failed"] == 1


class TestChaos:
    def test_sigkill_resumes_bit_identically_on_another_worker(
        self, multi_probe_graph_file, tmp_path
    ):
        spec = JobSpec(multi_probe_graph_file, k=2, seed=7, name="victim")

        async def run(chaos, workdir):
            config = _config(tmp_path, workers=2, workdir=str(workdir))
            async with Supervisor(config, chaos=chaos) as sup:
                job, events, result = await _solve(sup, spec)
            return job, events, result, sup

        _, ref_events, reference, _ = asyncio.run(
            run(None, tmp_path / "ref")
        )
        chaos = ChaosPlan(kills={"victim": [1]})
        job, events, result, sup = asyncio.run(run(chaos, tmp_path / "chaos"))

        # The whole point: the answer is byte-identical to the
        # undisturbed run, crash or no crash.
        assert result["answer"] == reference["answer"]
        assert result["verified"]
        assert job.resumes == 1
        assert result["resumed_probes"] == 1
        counters = sup.tracer.registry.as_dict()["counters"]
        assert counters["service_worker_crashes"] == 1
        assert counters["service_jobs_resumed"] == 1
        # The caller's stream re-announces the incumbent on replay
        # (flagged), then continues live — it never regresses.
        sizes = [event.size for event in events]
        assert sizes[-1] == ref_events[-1].size
        assert any(event.replayed for event in events)
        assert not any(event.replayed for event in ref_events)

    def test_resume_budget_exhaustion_fails_the_job(
        self, multi_probe_graph_file, tmp_path
    ):
        # Kill every attempt (cumulative probe counts); with one resume
        # allowed the job must settle failed after the second kill.
        chaos = ChaosPlan(kills={"victim": [1, 2, 3, 4]})
        spec = JobSpec(multi_probe_graph_file, k=2, seed=7, name="victim")

        async def scenario():
            config = _config(tmp_path, workers=1, max_resumes=1)
            async with Supervisor(config, chaos=chaos) as sup:
                job = sup.submit(spec)
                with pytest.raises(ServiceError, match="resume budget"):
                    await job.result_dict()
                return job, sup

        job, sup = asyncio.run(scenario())
        assert job.state == "failed"
        assert job.resumes == 1
        counters = sup.tracer.registry.as_dict()["counters"]
        assert counters["service_worker_crashes"] == 2
        assert counters["service_jobs_resumed"] == 1

    def test_sigint_suspends_with_resumable_checkpoint(
        self, multi_probe_graph_file, tmp_path
    ):
        chaos = ChaosPlan(interrupts={"victim": [1]})
        spec = JobSpec(multi_probe_graph_file, k=2, seed=7, name="victim")

        async def scenario():
            config = _config(tmp_path, workers=1)
            async with Supervisor(config, chaos=chaos) as sup:
                job = sup.submit(spec)
                with pytest.raises(ServiceError, match="suspended"):
                    await job.result_dict()
                return job, sup

        job, sup = asyncio.run(scenario())
        assert job.state == "suspended"
        # The journal is on disk with the completed probe — a direct
        # resume finishes the search bit-identically.
        from repro.graphs import read_edge_list

        graph, _ = read_edge_list(multi_probe_graph_file)
        resumed = qmkp(
            graph, 2, rng=np.random.default_rng(7),
            checkpoint=job.checkpoint_path, resume=job.checkpoint_path,
        )
        reference = qmkp(graph, 2, rng=np.random.default_rng(7))
        assert resumed.subset == reference.subset
        assert resumed.gate_units == reference.gate_units
        assert resumed.resumed_probes == 1


class TestWorkdirPersistence:
    """The workdir may outlive many supervisors; artifact names must
    never depend on submission order or the restart-resetting job
    sequence."""

    def test_restarted_service_resumes_regardless_of_submission_order(
        self, multi_probe_graph_file, graph_file, tmp_path
    ):
        workdir = tmp_path / "work"
        chaos = ChaosPlan(interrupts={"victim": [1]})
        victim_spec = JobSpec(
            multi_probe_graph_file, k=2, seed=7, name="victim"
        )

        # Server 1: the victim job is suspended with one journaled probe.
        async def server1():
            config = _config(tmp_path, workers=1, workdir=str(workdir))
            async with Supervisor(config, chaos=chaos) as sup:
                job = sup.submit(victim_spec)
                with pytest.raises(ServiceError, match="suspended"):
                    await job.result_dict()
                return job

        suspended = asyncio.run(server1())
        assert suspended.state == "suspended"
        assert suspended.checkpoint_path.exists()

        # Server 2, same workdir: an unrelated spec goes first — under
        # sequence-numbered artifacts it would inherit the victim's
        # stale journal and fail with a header mismatch — then the
        # victim spec is resubmitted and must resume its own journal.
        async def server2():
            config = _config(tmp_path, workers=1, workdir=str(workdir))
            async with Supervisor(config) as sup:
                other = await _solve(
                    sup, JobSpec(graph_file, k=2, seed=3, name="other")
                )
                victim = await _solve(sup, victim_spec)
            return other, victim

        (other, _, other_result), (victim, _, victim_result) = asyncio.run(
            server2()
        )
        assert other.state == "done"
        assert victim.state == "done"
        assert victim_result["resumed_probes"] == 1
        graph, _ = read_edge_list(multi_probe_graph_file)
        reference = qmkp(graph, 2, rng=np.random.default_rng(7))
        assert victim_result["answer"]["size"] == reference.size
        assert victim_result["answer"]["gate_units"] == reference.gate_units
        # Finished jobs delete their journals, so nothing is left to
        # shadow yet another resubmission of either spec.
        assert not victim.checkpoint_path.exists()
        assert not other.checkpoint_path.exists()

    def test_live_duplicate_attaches_and_runs_once(
        self, graph_file, tmp_path
    ):
        spec = JobSpec(graph_file, k=2, seed=7, name="twin")

        async def scenario():
            async with Supervisor(_config(tmp_path, workers=1)) as sup:
                first = sup.submit(spec)
                second = sup.submit(spec)  # still queued: attaches
                streams = await asyncio.gather(
                    _events(first), _events(second)
                )
                results = [await job.result_dict() for job in (first, second)]
                live = dict(sup.jobs)
                # Settled, the spec is no longer live: a resubmission
                # is a fresh admission, under the same artifact names.
                third = sup.submit(spec)
                await third.result_dict()
            return first, second, third, streams, results, live, sup

        first, second, third, streams, results, live, sup = asyncio.run(
            scenario()
        )
        assert second is first
        # Both callers stream every incumbent and get the one answer.
        assert streams[0] == streams[1] and streams[0]
        assert results[0] == results[1]
        assert live == {}
        counters = sup.tracer.registry.as_dict()["counters"]
        assert counters["service_jobs_submitted"] == 2  # first, third
        assert counters["service_jobs_replayed"] == 1
        assert counters["service_jobs_completed"] == 2
        assert sup.stats()["jobs"] == {"done": 2}
        # Artifact names derive from the spec content, not the
        # restart-resetting job sequence.
        assert third is not first
        assert third.checkpoint_path == first.checkpoint_path
        assert first.checkpoint_path.name == f"{spec.artifact_stem()}.wal"
        assert first.receipt_path.name == (
            f"{spec.artifact_stem()}.receipt.json"
        )
        # A different spec (same but for the name) gets a different key.
        other = JobSpec(graph_file, k=2, seed=7, name="tw1n")
        assert other.content_key() != spec.content_key()
        assert other.artifact_stem() == "tw1n-" + other.content_key()


class TestWorkerRobustness:
    def test_spawn_failure_fails_the_job_not_the_worker(
        self, graph_file, tmp_path
    ):
        # A missing interpreter makes create_subprocess_exec raise
        # OSError inside the worker; the job must settle failed (so
        # result_dict never hangs) and the slot must keep serving.
        async def scenario():
            config = _config(
                tmp_path, workers=1, python=str(tmp_path / "no-such-python")
            )
            async with Supervisor(config) as sup:
                first = sup.submit(JobSpec(graph_file, k=2, name="boom"))
                with pytest.raises(ServiceError, match="internal error"):
                    await first.result_dict()
                second = sup.submit(
                    JobSpec(graph_file, k=2, solver="bs", name="next")
                )
                with pytest.raises(ServiceError, match="internal error"):
                    await second.result_dict()
            return first, second, sup

        first, second, sup = asyncio.run(scenario())
        assert first.state == "failed"
        assert second.state == "failed"
        counters = sup.tracer.registry.as_dict()["counters"]
        assert counters["service_worker_errors"] == 2

    def test_malformed_protocol_lines_are_counted_not_fatal(
        self, graph_file, tmp_path
    ):
        sup = Supervisor(_config(tmp_path, workers=1))
        worker = Worker("w0", sup)
        job = sup.submit(JobSpec(graph_file, name="proto"))
        for line in (
            b"not json at all\n",
            b'{"event": "incumbent"}\n',            # missing keys
            b'{"event": "incumbent", "size": "x"}\n',  # uncoercible
            b'{"event": "result"}\n',              # missing answer
            b'{"event": "started", "pid": "nope"}\n',
        ):
            worker._handle_line(job, line)
        assert job.incumbents == []
        assert job.result is None
        counters = sup.tracer.registry.as_dict()["counters"]
        assert counters["service_protocol_errors"] == 5


class TestAdmission:
    def test_backpressure_is_typed_end_to_end(self, graph_file, tmp_path):
        # Unstarted supervisor: nothing drains the queue, so the bound
        # is hit deterministically.
        sup = Supervisor(_config(tmp_path, workers=1, queue_capacity=1))
        sup.submit(JobSpec(graph_file, name="first"))
        with pytest.raises(BackpressureError) as info:
            sup.submit(JobSpec(graph_file, name="second"))
        assert info.value.capacity == 1
        counters = sup.tracer.registry.as_dict()["counters"]
        assert counters["service_jobs_rejected_backpressure"] == 1
        assert counters["service_jobs_submitted"] == 1

    def test_admission_rejects_dry_tenant(self, graph_file, tmp_path):
        sup = Supervisor(
            _config(tmp_path, tenant_budgets={"acme": 100.0})
        )
        sup.tenants.charge("acme", 150.0)  # as if earlier jobs spent it
        with pytest.raises(AdmissionError):
            sup.submit(JobSpec(graph_file, tenant="acme"))
        sup.submit(JobSpec(graph_file, tenant="other"))  # isolated
        counters = sup.tracer.registry.as_dict()["counters"]
        assert counters["service_jobs_rejected_admission"] == 1

    def test_completed_jobs_charge_their_tenant(self, graph_file, tmp_path):
        async def scenario():
            config = _config(tmp_path, workers=1, tenant_budgets={"acme": 1e9})
            async with Supervisor(config) as sup:
                _, _, result = await _solve(
                    sup, JobSpec(graph_file, k=2, seed=7, tenant="acme")
                )
            return result, sup

        result, sup = asyncio.run(scenario())
        pool = sup.tenants.pool("acme")
        assert pool.charged == float(result["answer"]["gate_units"]) > 0


class TestDegradation:
    def test_open_breaker_routes_fresh_jobs_down_the_ladder(
        self, graph_file, tmp_path
    ):
        async def scenario():
            config = _config(tmp_path, workers=1)
            async with Supervisor(config) as sup:
                breaker = sup.breaker("qmkp")
                for _ in range(config.breaker_failure_threshold):
                    breaker.record_failure()
                assert breaker.state == "open"
                job, _, result = await _solve(
                    sup, JobSpec(graph_file, k=2, seed=7, name="deg")
                )
            return job, result, sup

        job, result, sup = asyncio.run(scenario())
        assert job.degraded_from == ["qmkp"]
        assert job.solver == "bs"
        assert result["answer"]["solver"] == "bs"
        assert result["answer"]["size"] == maximum_kplex(figure1_graph(), 2).size
        counters = sup.tracer.registry.as_dict()["counters"]
        assert counters["service_jobs_degraded"] == 1
        # Breaker lifecycle is visible in the service registry.
        assert counters["breaker_transitions"] >= 1
        gauges = sup.tracer.registry.as_dict()["gauges"]
        assert "breaker_state_qmkp" in gauges

    def test_all_rungs_open_fails_the_job(self, graph_file, tmp_path):
        async def scenario():
            config = _config(tmp_path, workers=1)
            async with Supervisor(config) as sup:
                for backend in ("qmkp", "bs"):
                    breaker = sup.breaker(backend)
                    for _ in range(config.breaker_failure_threshold):
                        breaker.record_failure()
                job = sup.submit(JobSpec(graph_file, k=2, name="doomed"))
                with pytest.raises(ServiceError, match="no degradation rung"):
                    await job.result_dict()
                return job

        job = asyncio.run(scenario())
        assert job.state == "failed"


class TestShutdown:
    def test_suspend_checkpoints_queued_and_inflight_jobs(
        self, multi_probe_graph_file, tmp_path
    ):
        # One worker: "held" runs (pinned by the hold hook), "queued"
        # waits.  A non-drain shutdown must suspend both, not lose them.
        chaos = ChaosPlan(holds={"held": 30.0})

        async def scenario():
            config = _config(tmp_path, workers=1)
            sup = Supervisor(config, chaos=chaos)
            await sup.start()
            held = sup.submit(
                JobSpec(multi_probe_graph_file, k=2, seed=7, name="held")
            )
            queued = sup.submit(
                JobSpec(multi_probe_graph_file, k=2, seed=7, name="queued")
            )
            # The "started" event guarantees the child's SIGINT handler
            # is installed, so the suspend below is graceful.
            while held.child_pid is None:
                await asyncio.sleep(0.01)
            await sup.shutdown(drain=False)
            return held, queued, sup

        held, queued, sup = asyncio.run(scenario())
        assert held.state == "suspended"
        assert queued.state == "suspended"
        counters = sup.tracer.registry.as_dict()["counters"]
        assert counters["service_jobs_suspended"] == 2

    def test_suspending_flag_blocks_new_spawns(
        self, multi_probe_graph_file, tmp_path
    ):
        # A job dequeued after the shutdown sweep (which only SIGINTs
        # children that already exist) must be suspended by the worker
        # before it spawns, not run to completion behind the suspend.
        async def scenario():
            sup = Supervisor(_config(tmp_path, workers=1))
            job = sup.submit(
                JobSpec(multi_probe_graph_file, k=2, seed=7, name="late")
            )
            sup._suspending = True  # as if shutdown(drain=False) swept now
            await sup.start()
            await sup.drain()
            return job, sup

        job, sup = asyncio.run(scenario())
        assert job.state == "suspended"
        assert job.child_pid is None  # no subprocess was ever spawned
        counters = sup.tracer.registry.as_dict()["counters"]
        assert counters["service_jobs_suspended"] == 1

    def test_drain_finishes_accepted_work(self, graph_file, tmp_path):
        async def scenario():
            sup = Supervisor(_config(tmp_path, workers=2))
            await sup.start()
            jobs = [
                sup.submit(JobSpec(graph_file, k=2, seed=7, name=f"j{i}"))
                for i in range(3)
            ]
            await sup.shutdown(drain=True)
            return jobs

        jobs = asyncio.run(scenario())
        assert all(job.state == "done" for job in jobs)
