"""Gateway tests: HTTP/SSE front end over a real supervisor.

The asyncio server runs on the test's event loop; the blocking
stdlib client is pushed to threads with ``asyncio.to_thread``.  Solves
use the figure-1 graph so every job is sub-second.
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import socket
import sys
import time
import weakref

import numpy as np
import pytest

from repro.core import qmkp
from repro.datasets import figure1_graph
from repro.graphs import write_edge_list
from repro.service import (
    AdmissionError,
    BackpressureError,
    Gateway,
    GatewayClient,
    GatewayError,
    JobSpec,
    ServiceConfig,
    Supervisor,
)
from repro.resilience import RetryPolicy
from repro.service.http import DropConnection
from repro.service.jobs import Job


@pytest.fixture
def graph_file(tmp_path):
    path = tmp_path / "fig1.edges"
    write_edge_list(figure1_graph(), path)
    return str(path)


def _config(tmp_path, **kwargs) -> ServiceConfig:
    kwargs.setdefault("workdir", str(tmp_path / "work"))
    return ServiceConfig(**kwargs)


def _counter(sup, name: str) -> float:
    return sup.tracer.registry.as_dict()["counters"].get(name, 0)


async def _until_idle(gateway, timeout_s: float = 10.0) -> None:
    """Wait, at most ``timeout_s``, for every pump to end."""
    deadline = time.monotonic() + timeout_s
    while gateway._live and time.monotonic() < deadline:
        await asyncio.sleep(0.01)


async def _serving(config, fn):
    """Run ``fn(supervisor, gateway, client)`` against a live gateway."""
    async with Supervisor(config) as sup:
        gateway = Gateway(sup)
        await gateway.start()
        client = GatewayClient(gateway.base_url, timeout_s=30.0)
        try:
            return await fn(sup, gateway, client)
        finally:
            await gateway.close()


class TestSubmission:
    def test_solve_end_to_end_matches_direct_answer(self, graph_file, tmp_path):
        async def scenario(sup, gateway, client):
            spec = JobSpec(graph_file, k=2, seed=7)
            incumbents, result = await asyncio.to_thread(client.solve, spec)
            return incumbents, result

        incumbents, result = asyncio.run(
            _serving(_config(tmp_path, workers=1), scenario)
        )
        direct = qmkp(figure1_graph(), 2, rng=np.random.default_rng(7))
        assert result["state"] == "done"
        assert result["answer"]["size"] == direct.size
        assert result["answer"]["gate_units"] == direct.gate_units
        assert result["verified"]
        # The stream's final incumbent is the answer.
        assert incumbents and incumbents[-1]["size"] == direct.size

    def test_duplicate_submission_replays_not_resolves(
        self, graph_file, tmp_path
    ):
        async def scenario(sup, gateway, client):
            spec = JobSpec(graph_file, k=2, seed=7)
            first = await asyncio.to_thread(client.submit, spec)
            _, result = await asyncio.to_thread(client.solve, spec)
            second = await asyncio.to_thread(client.submit, spec)
            return first, second, result, _counter(sup, "service_jobs_submitted")

        first, second, result, submitted = asyncio.run(
            _serving(_config(tmp_path, workers=1), scenario)
        )
        assert first["replayed"] is False
        assert second["replayed"] is True
        assert second["job_id"] == first["job_id"]
        assert submitted == 1  # the solver ran exactly once
        assert result["state"] == "done"

    def test_restarted_gateway_replays_a_done_spec_without_solving(
        self, graph_file, tmp_path
    ):
        config = _config(tmp_path, workers=1, tenant_budgets={"acme": 1e12})
        spec = JobSpec(graph_file, k=2, seed=7, tenant="acme")

        async def first_life(sup, gateway, client):
            return await asyncio.to_thread(client.solve, spec)

        async def successor(sup, gateway, client):
            # A new gateway and supervisor over the same workdir: the
            # settled spec exists only as its journal file.
            doc = await asyncio.to_thread(client.submit, spec)
            _, result = await asyncio.to_thread(client.solve, spec)
            _, status = await asyncio.to_thread(client.job, doc["job"])
            pool = sup.tenants.pool("acme")
            return doc, result, status, sup, pool.charged

        _, original = asyncio.run(_serving(config, first_life))
        doc, result, status, sup, charged = asyncio.run(
            _serving(config, successor)
        )
        assert doc["replayed"] is True
        assert doc["job_id"] == original["job_id"]
        assert doc["state"] == "done"
        assert result == original
        assert _counter(sup, "service_jobs_submitted") == 0
        assert charged == 0  # the tenant paid once, in the first life
        # The status document keeps the live one's fields.
        assert {name: status[name] for name in (
            "job_id", "state", "solver", "resumes", "error", "pid",
        )} == {
            "job_id": original["job_id"], "state": "done", "solver": "qmkp",
            "resumes": 0, "error": None, "pid": original["pid"],
        }
        assert original["pid"] > 0

    def test_failed_spec_reruns_once_its_graph_exists(self, tmp_path):
        graph_path = tmp_path / "late.edges"
        spec = JobSpec(str(graph_path), k=2, seed=7)

        async def scenario(sup, gateway, client):
            _, failed = await asyncio.to_thread(client.solve, spec)
            write_edge_list(figure1_graph(), graph_path)
            _, done = await asyncio.to_thread(client.solve, spec)
            _, again = await asyncio.to_thread(client.solve, spec)
            submitted = _counter(sup, "service_jobs_submitted")
            return failed, done, again, submitted, sup.stats()["jobs"]

        failed, done, again, submitted, jobs = asyncio.run(
            _serving(_config(tmp_path, workers=1), scenario)
        )
        assert failed["state"] == "failed"
        assert "[Errno 2]" in failed["error"]
        direct = qmkp(figure1_graph(), 2, rng=np.random.default_rng(7))
        assert done["state"] == "done"
        assert done["answer"]["size"] == direct.size
        assert done["answer"]["gate_units"] == direct.gate_units
        assert done["answer"]["oracle_calls"] == direct.oracle_calls
        assert again == done  # replayed from the journal...
        assert submitted == 2  # ...without a third job
        assert jobs == {"failed": 1, "done": 1}

    def test_bad_body_is_400(self, tmp_path):
        async def scenario(sup, gateway, client):
            status, doc = await asyncio.to_thread(
                client._request_json, "POST", "/v1/jobs", {"nonsense": True}
            )
            return status, doc

        status, doc = asyncio.run(_serving(_config(tmp_path), scenario))
        assert status == 400
        assert doc["error_type"] == "BadSpec"

    def test_backpressure_maps_to_429_with_retry_after(
        self, graph_file, tmp_path, monkeypatch
    ):
        async def scenario(sup, gateway, client):
            def full(spec):
                raise BackpressureError(capacity=4, depth=4)

            monkeypatch.setattr(sup, "submit", full)
            with pytest.raises(GatewayError) as err:
                await asyncio.to_thread(client.submit, JobSpec(graph_file, k=2))
            return err.value, _counter(sup, "gateway_rejected_backpressure")

        error, rejected = asyncio.run(_serving(_config(tmp_path), scenario))
        assert error.status == 429
        assert error.body["error_type"] == "BackpressureError"
        assert error.body["depth"] == 4
        assert error.retry_after_s == 1.0
        assert rejected == 1

    def test_admission_maps_to_429_with_tenant_detail(
        self, graph_file, tmp_path, monkeypatch
    ):
        async def scenario(sup, gateway, client):
            def broke(spec):
                raise AdmissionError(tenant="acme", budget=100, charged=99)

            monkeypatch.setattr(sup, "submit", broke)
            with pytest.raises(GatewayError) as err:
                await asyncio.to_thread(client.submit, JobSpec(graph_file, k=2))
            return err.value

        error = asyncio.run(_serving(_config(tmp_path), scenario))
        assert error.status == 429
        assert error.body["error_type"] == "AdmissionError"
        assert error.body["tenant"] == "acme"
        assert error.body["budget"] == 100

    def test_admission_refusal_is_raised_without_retrying(
        self, graph_file, tmp_path, monkeypatch
    ):
        # A dry tenant pool never refills, and the gateway says so by
        # sending no retry_after_s: the client must not back off on it.
        calls: list = []

        async def scenario(sup, gateway, client):
            def broke(spec):
                calls.append(spec)
                raise AdmissionError(tenant="acme", budget=1, charged=882)

            monkeypatch.setattr(sup, "submit", broke)
            with pytest.raises(GatewayError) as err:
                await asyncio.to_thread(
                    client.submit_with_retries, JobSpec(graph_file, k=2)
                )
            return err.value

        error = asyncio.run(_serving(_config(tmp_path), scenario))
        assert len(calls) == 1
        assert error.status == 429
        assert error.retry_after_s is None
        assert str(error).startswith("gateway returned 429: tenant 'acme'")

    def test_backpressure_is_retried_after_the_hinted_delay(
        self, graph_file, tmp_path, monkeypatch
    ):
        calls: list = []

        async def scenario(sup, gateway, client):
            admit = sup.submit

            def full_once(spec):
                calls.append(spec)
                if len(calls) == 1:
                    raise BackpressureError(capacity=4, depth=4)
                return admit(spec)

            monkeypatch.setattr(sup, "submit", full_once)
            return await asyncio.to_thread(
                client.submit_with_retries, JobSpec(graph_file, k=2, seed=7)
            )

        doc = asyncio.run(_serving(_config(tmp_path, workers=1), scenario))
        assert len(calls) == 2
        assert doc["replayed"] is False

    def test_unreachable_gateway_names_the_url(self):
        with socket.socket() as probe:  # a port nothing listens on
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        policy = RetryPolicy(
            max_attempts=3, backoff_base_us=0.0, backoff_cap_us=0.0
        )
        client = GatewayClient(f"http://127.0.0.1:{port}", policy=policy)
        with pytest.raises(ConnectionError) as err:
            client.submit_with_retries(JobSpec("g.edges", k=2))
        assert not isinstance(err.value, GatewayError)
        assert str(err.value).startswith(
            f"no gateway answered at http://127.0.0.1:{port} after 3 attempts"
        )


class TestRouting:
    def test_unknown_job_is_404(self, tmp_path):
        async def scenario(sup, gateway, client):
            return await asyncio.to_thread(client.job, "feedfacefeedface")

        status, doc = asyncio.run(_serving(_config(tmp_path), scenario))
        assert status == 404
        assert doc["error_type"] == "NotFound"

    def test_unknown_route_is_404_and_bad_method_405(self, tmp_path):
        async def scenario(sup, gateway, client):
            missing = await asyncio.to_thread(
                client._request_json, "GET", "/v2/nope"
            )
            bad = await asyncio.to_thread(
                client._request_json, "POST", "/v1/healthz", {}
            )
            return missing, bad

        (missing_status, _), (bad_status, _) = asyncio.run(
            _serving(_config(tmp_path), scenario)
        )
        assert missing_status == 404
        assert bad_status == 404  # POST /v1/healthz: no such route

    def test_healthz_and_metrics(self, graph_file, tmp_path):
        async def scenario(sup, gateway, client):
            await asyncio.to_thread(client.solve, JobSpec(graph_file, k=2, seed=7))
            health = await asyncio.to_thread(
                client._request_json, "GET", "/v1/healthz"
            )
            prom = await asyncio.to_thread(client.metrics, "prom")
            as_json = await asyncio.to_thread(client.metrics, "json")
            return health, prom, as_json

        (status, doc), prom, as_json = asyncio.run(
            _serving(_config(tmp_path, workers=1), scenario)
        )
        assert status == 200 and doc["status"] == "ok"
        assert doc["jobs"].get("done") == 1
        assert "service_jobs_completed" in prom
        assert json.loads(as_json)["counters"]["service_jobs_completed"] == 1

    def test_job_status_document(self, graph_file, tmp_path):
        async def scenario(sup, gateway, client):
            spec = JobSpec(graph_file, k=2, seed=7)
            submitted = await asyncio.to_thread(client.solve, spec)
            return await asyncio.to_thread(client.job, spec.content_key())

        status, doc = asyncio.run(_serving(_config(tmp_path, workers=1), scenario))
        assert status == 200
        assert doc["state"] == "done"
        assert doc["last_event_id"] >= 1
        assert doc["events"].endswith("/events")
        assert doc["pid"] > 0  # the runner child that ran the job


class TestLongRunning:
    """A gateway serves many jobs; what it holds must not grow with them."""

    JOBS = 30

    @pytest.mark.skipif(
        not sys.platform.startswith("linux"), reason="counts /proc/self/fd"
    )
    def test_settled_jobs_hold_no_open_files(self, graph_file, tmp_path):
        async def settled_fd_count(gateway) -> int:
            # A connection's socket closes a loop turn after its handler
            # returns: wait for the pumps, then for the count to hold.
            await _until_idle(gateway)
            count = -1
            for _ in range(100):
                await asyncio.sleep(0.05)
                previous, count = count, len(os.listdir("/proc/self/fd"))
                if count == previous and not gateway._connections:
                    break
            return count

        async def scenario(sup, gateway, client):
            counts = []
            for seed in range(self.JOBS):
                spec = JobSpec(graph_file, k=2, solver="bs", name=f"fd{seed}")
                _, result = await asyncio.to_thread(client.solve, spec)
                assert result["state"] == "done"
                if seed in (0, self.JOBS - 1):
                    counts.append(await settled_fd_count(gateway))
            return counts

        first, last = asyncio.run(
            _serving(_config(tmp_path, workers=1), scenario)
        )
        # Before settled journals closed their handles, each job left
        # its event-journal file open: last == first + JOBS - 1.
        assert last == first

    def test_settled_jobs_leave_no_live_state(
        self, graph_file, tmp_path, monkeypatch
    ):
        refs: list[weakref.ref] = []

        async def scenario(sup, gateway, client):
            submit = sup.submit

            def tracked(spec):
                job = submit(spec)
                refs.append(weakref.ref(job))
                return job

            monkeypatch.setattr(sup, "submit", tracked)
            for seed in range(self.JOBS):
                spec = JobSpec(graph_file, k=2, solver="bs", name=f"gc{seed}")
                _, result = await asyncio.to_thread(client.solve, spec)
                assert result["state"] == "done"
            await _until_idle(gateway)
            held = dict(sup.jobs), dict(gateway._live)
            gc.collect()
            return held, [ref() is None for ref in refs]

        (jobs, live), freed = asyncio.run(
            _serving(_config(tmp_path, workers=1), scenario)
        )
        assert jobs == {} and live == {}
        assert freed == [True] * self.JOBS

    def test_latency_histograms_count_every_job(self, graph_file, tmp_path):
        jobs = 3

        async def scenario(sup, gateway, client):
            for seed in range(jobs):
                spec = JobSpec(graph_file, k=2, seed=seed)
                await asyncio.to_thread(client.solve, spec)
            return json.loads(await asyncio.to_thread(client.metrics, "json"))

        metrics = asyncio.run(_serving(_config(tmp_path, workers=1), scenario))
        counts = {
            name: doc["count"] for name, doc in metrics["histograms"].items()
        }
        assert counts == {
            "service_queue_wait_s": jobs,
            "service_spawn_s": 1,  # one slot, one warm child for every job
            "service_solve_s": jobs,
            "service_first_incumbent_s": jobs,
            "gateway_submit_to_result_s": jobs,
        }


class TestStreams:
    def test_reconnect_resumes_without_gaps_or_duplicates(
        self, graph_file, tmp_path
    ):
        dropped = {"count": 0}

        def drop_once(record):
            # Chaos hook: tear the connection down right after the first
            # journaled event arrives, exactly once.
            if record["id"] == 1 and dropped["count"] == 0:
                dropped["count"] += 1
                raise DropConnection

        async def scenario(sup, gateway, client):
            spec = JobSpec(graph_file, k=2, seed=7)
            return await asyncio.to_thread(client.solve, spec, drop_once)

        incumbents, result = asyncio.run(
            _serving(_config(tmp_path, workers=1), scenario)
        )
        assert dropped["count"] == 1
        assert result["state"] == "done"
        # solve() asserts monotone gap-free ids internally; duplicates
        # would break the size progression here.
        sizes = [inc["size"] for inc in incumbents]
        assert sizes == sorted(set(sizes))

    def test_restarted_gateway_replays_from_disk(self, graph_file, tmp_path):
        config = _config(tmp_path, workers=1)

        async def scenario():
            async with Supervisor(config) as sup:
                first = Gateway(sup)
                await first.start()
                client = GatewayClient(first.base_url, timeout_s=30.0)
                spec = JobSpec(graph_file, k=2, seed=7)
                incumbents, result = await asyncio.to_thread(client.solve, spec)
                await first.close()

                # A fresh gateway over the same workdir: no live jobs,
                # only the journals its predecessor left behind.
                second = Gateway(sup)
                await second.start()
                replayer = GatewayClient(second.base_url, timeout_s=30.0)
                try:
                    records = await asyncio.to_thread(
                        lambda: list(
                            replayer.stream_once(spec.content_key(), 0)
                        )
                    )
                finally:
                    await second.close()
                return incumbents, result, records

        incumbents, result, records = asyncio.run(scenario())
        ids = [r["id"] for r in records]
        assert ids == list(range(1, len(records) + 1))
        assert records[-1]["event"] == "result"
        assert records[-1]["data"] == result
        assert [r["data"] for r in records[:-1]] == incumbents

    def test_last_event_id_skips_replayed_prefix(self, graph_file, tmp_path):
        async def scenario(sup, gateway, client):
            spec = JobSpec(graph_file, k=2, seed=7)
            _, result = await asyncio.to_thread(client.solve, spec)
            key = spec.content_key()
            _, doc = await asyncio.to_thread(client.job, key)
            total = doc["last_event_id"]
            tail = await asyncio.to_thread(
                lambda: list(client.stream_once(key, total - 1))
            )
            return total, tail

        total, tail = asyncio.run(_serving(_config(tmp_path, workers=1), scenario))
        assert [r["id"] for r in tail] == [total]
        assert tail[0]["event"] == "result"

    def test_events_for_unknown_job_is_404(self, tmp_path):
        async def scenario(sup, gateway, client):
            with pytest.raises(GatewayError) as err:
                await asyncio.to_thread(
                    lambda: list(client.stream_once("feedfacefeedface", 0))
                )
            return err.value

        error = asyncio.run(_serving(_config(tmp_path), scenario))
        assert error.status == 404

    def test_stream_of_a_job_that_suspends_ends_for_a_resubmit(
        self, graph_file, tmp_path
    ):
        async def scenario(sup, gateway, client):
            key = "feedfacecafebeef"
            producer = Job("job-x", JobSpec(graph_file, k=2), sup.workdir)
            gateway._track(key, producer).append("incumbent", {"n": 1})
            stream = asyncio.ensure_future(
                asyncio.to_thread(lambda: list(client.stream_once(key, 0)))
            )
            await asyncio.sleep(0.3)  # the client follows the live job
            producer.settle("suspended")
            records = await asyncio.wait_for(stream, 10.0)
            _, doc = await asyncio.to_thread(client.job, key)
            return records, doc

        records, doc = asyncio.run(
            _serving(_config(tmp_path, http_heartbeat_s=0.1), scenario)
        )
        # The stream ends with no terminal record, which tells the
        # client to re-POST the spec and so resume the job.
        assert [r["id"] for r in records] == [1]
        assert doc["state"] == "detached"


class TestDegradation:
    def test_stalled_reader_is_evicted(self, graph_file, tmp_path):
        """A reader that stops consuming is cut off, not buffered forever."""
        config = _config(
            tmp_path,
            http_send_queue=8,
            http_write_timeout_s=0.2,
            http_heartbeat_s=0.1,
        )

        async def scenario(sup, gateway, client):
            key = "feedfacecafebeef"
            # A fake live producer keeps the SSE handler in its live
            # loop instead of closing after replay.
            producer = Job("job-x", JobSpec(graph_file, k=2), sup.workdir)
            journal = gateway._track(key, producer)

            sock = socket.create_connection((gateway.host, gateway.port))
            sock.sendall(
                f"GET /v1/jobs/{key}/events HTTP/1.1\r\n"
                f"Host: x\r\nLast-Event-ID: 0\r\n\r\n".encode()
            )
            # Read nothing: the socket buffers fill, drain() stalls, and
            # either the write deadline or the send-queue bound trips.
            try:
                payload = "x" * 2048
                for round_ in range(400):
                    for i in range(8):
                        journal.append(
                            "incumbent", {"n": round_ * 8 + i, "pad": payload}
                        )
                    await asyncio.sleep(0.02)
                    if _counter(sup, "service_slow_client_evictions") >= 1:
                        break
            finally:
                sock.close()
                producer.settle("suspended")  # ends its pump
            return _counter(sup, "service_slow_client_evictions")

        evictions = asyncio.run(_serving(config, scenario))
        assert evictions >= 1

    def test_drain_closes_streams_and_rejects_new_submissions(
        self, graph_file, tmp_path
    ):
        config = _config(tmp_path, http_heartbeat_s=0.1)

        async def scenario():
            async with Supervisor(config) as sup:
                gateway = Gateway(sup)
                await gateway.start()
                client = GatewayClient(gateway.base_url, timeout_s=30.0)
                key = "feedfacecafebeef"
                producer = Job("job-x", JobSpec(graph_file, k=2), sup.workdir)
                gateway._track(key, producer).append("incumbent", {"n": 1})

                stream_task = asyncio.ensure_future(
                    asyncio.to_thread(lambda: list(client.stream_once(key, 0)))
                )
                await asyncio.sleep(0.3)  # client is live, waiting for events
                # The serve order: stop accepting (streams close), the
                # supervisor suspends its jobs, then the pumps end.
                await gateway.stop_accepting()
                producer.settle("suspended")
                await gateway.close()
                records = await stream_task

                with pytest.raises((GatewayError, OSError)) as err:
                    client.submit(JobSpec(graph_file, k=2))
                return records, err.value

        records, error = asyncio.run(scenario())
        # The stream ended cleanly with the replayed prefix and no
        # terminal — exactly the signal that tells a client to reconnect.
        assert [r["id"] for r in records] == [1]
        # After close() the socket is gone entirely OR answered 503 if
        # caught mid-drain; both read as "resubmit elsewhere".
        assert isinstance(error, (GatewayError, OSError))
