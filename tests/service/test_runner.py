"""Protocol and lifecycle tests for the worker child (repro.service.runner).

The child reads one JSON job record per stdin line and answers each
with its event stream and one ``exit`` record; it serves job after job
until stdin closes.  :class:`Runner` drives it the way a worker slot
does.  The lifecycle tests run ``qmkp serve`` and check that its
runner children never outlive it.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.datasets import figure1_graph
from repro.graphs import gnm_random_graph, write_edge_list
from repro.service import (
    GatewayClient,
    JobSpec,
    ServiceConfig,
    ServiceError,
    Supervisor,
)

REPO_SRC = str(Path(__file__).resolve().parents[2] / "src")

linux_only = pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="reads /proc"
)


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("QMKP_CRASH_AFTER_PROBES", None)
    env.pop("QMKP_SIGINT_AFTER_PROBES", None)
    return env


class Runner:
    """One runner child, fed job records over stdin.

    A watchdog kills the child after two minutes, so a protocol bug
    fails the test instead of hanging it.
    """

    def __init__(self, tmp_path: Path) -> None:
        self.tmp_path = tmp_path
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.service.runner"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True, env=_env(),
        )
        self._watchdog = threading.Timer(120, self.proc.kill)
        self._watchdog.daemon = True
        self._watchdog.start()

    def run(self, spec: dict, job_id: str = "job-0000", **policy) -> list[dict]:
        """Send one job; its events up to and including ``exit``."""
        self.proc.stdin.write(json.dumps({
            "job_id": job_id,
            "spec": spec,
            "checkpoint": str(self.tmp_path / f"{job_id}.wal"),
            "receipt": str(self.tmp_path / f"{job_id}.receipt.json"),
            "env": policy.get("env", {}),
        }) + "\n")
        self.proc.stdin.flush()
        events: list[dict] = []
        while line := self.proc.stdout.readline():
            events.append(json.loads(line))
            if events[-1]["event"] == "exit":
                break
        return events

    def close(self) -> int:
        """EOF on stdin; the child's exit code."""
        try:
            self.proc.stdin.close()
        except BrokenPipeError:
            pass  # the child already exited
        try:
            return self.proc.wait(timeout=60)
        finally:
            self._watchdog.cancel()
            self.proc.stdout.close()


@pytest.fixture
def runner(tmp_path):
    child = Runner(tmp_path)
    yield child
    child.close()


@pytest.fixture
def graph_file(tmp_path):
    path = tmp_path / "fig1.edges"
    write_edge_list(figure1_graph(), path)
    return str(path)


def _fd_count(pid: int) -> int:
    return len(os.listdir(f"/proc/{pid}/fd"))


def _span_names(span: dict) -> list:
    return [span["name"], [_span_names(c) for c in span.get("children", [])]]


class TestRunnerProtocol:
    def test_event_stream_and_receipt(self, runner, graph_file):
        events = runner.run({"graph_path": graph_file, "k": 2, "seed": 7})
        kinds = [event["event"] for event in events]
        assert kinds[0] == "started"
        assert kinds[-2:] == ["result", "exit"]
        assert "incumbent" in kinds
        assert events[-1]["code"] == 0
        result = events[-2]
        assert result["verified"] is True
        assert result["answer"]["solver"] == "qmkp"
        # The receipt on disk is the full ledger document.
        receipt = json.loads(Path(result["receipt"]).read_text())
        assert receipt["answer"] == result["answer"]
        assert receipt["ledger"]["verified"] is True
        assert runner.close() == 0  # stdin EOF ends the child

    def test_zero_length_checkpoint_is_a_fresh_start(
        self, runner, graph_file, tmp_path
    ):
        # A crash can leave a zero-length journal (open() happened, the
        # header fsync did not).  The runner must treat it as "nothing
        # to resume", not refuse the job.
        (tmp_path / "job-0000.wal").touch()
        events = runner.run({"graph_path": graph_file, "k": 2, "seed": 7})
        assert events[0]["resuming"] is False
        assert events[-2]["event"] == "result"
        assert events[-1]["code"] == 0

    def test_bs_solver_streams_incumbents(self, runner, graph_file):
        events = runner.run({"graph_path": graph_file, "k": 2, "solver": "bs"})
        incumbents = [e for e in events if e["event"] == "incumbent"]
        assert incumbents
        result = events[-2]
        assert result["answer"]["solver"] == "bs"
        assert result["answer"]["size"] == incumbents[-1]["size"]
        assert events[-1]["code"] == 0

    def test_sigint_hook_suspends_with_exit_130(
        self, runner, graph_file, tmp_path
    ):
        events = runner.run(
            {"graph_path": graph_file, "k": 2, "seed": 7},
            env={"QMKP_SIGINT_AFTER_PROBES": "1"},
        )
        assert [e["event"] for e in events[-2:]] == ["suspended", "exit"]
        assert events[-1]["code"] == 130
        # A SIGINT ends the child too, without waiting for stdin EOF.
        assert runner.proc.wait(timeout=60) == 130
        # The journal holds the completed probe, ready to resume.
        wal = (tmp_path / "job-0000.wal").read_text().splitlines()
        assert len(wal) == 2  # header + one probe

    def test_missing_graph_is_a_usage_error(self, runner, graph_file, tmp_path):
        missing = str(tmp_path / "nope.edges")
        events = runner.run({"graph_path": missing}, job_id="job-0000")
        assert events[-1]["event"] == "exit"
        assert events[-1]["code"] == 2
        assert events[-1]["message"].startswith("error: ")
        assert missing in events[-1]["message"]
        # The child survives a bad job and serves the next one.
        served = runner.run({"graph_path": graph_file, "k": 2, "seed": 7},
                            job_id="job-0001")
        assert served[0]["pid"] == events[0]["pid"] == runner.proc.pid
        assert served[-1]["code"] == 0

    def test_job_env_does_not_outlive_the_job(self, runner, graph_file):
        # The crash hook never fires in a branch search (no journal), so
        # it is still set when that job ends.  Leaked into the next job,
        # it would SIGKILL the child after that job's first probe.
        bs = runner.run({"graph_path": graph_file, "solver": "bs"},
                        env={"QMKP_CRASH_AFTER_PROBES": "1"})
        assert bs[-1]["code"] == 0
        events = runner.run({"graph_path": graph_file, "k": 2, "seed": 7},
                            job_id="job-0001")
        assert events[-1]["event"] == "exit" and events[-1]["code"] == 0


def _mixed_jobs(tmp_path: Path) -> list[dict]:
    """A qmkp, a bs, a qamkp-sa and a dynamic (edit-script) job."""
    base = gnm_random_graph(9, 20, seed=3)
    graph = tmp_path / "gnm.edges"
    write_edge_list(base, graph)
    absent = [(u, v) for u in range(9) for v in range(u + 1, 9)
              if not base.has_edge(u, v)]
    edits = tmp_path / "edits.txt"
    edits.write_text("".join(f"add {u} {v}\n" for u, v in absent[:2]))
    path = str(graph)
    return [
        {"graph_path": path, "k": 2, "seed": 7},
        {"graph_path": path, "k": 2, "solver": "bs"},
        {"graph_path": path, "k": 2, "solver": "qamkp-sa", "seed": 5,
         "runtime_us": 200.0},
        {"graph_path": path, "k": 2, "seed": 7, "edits_path": str(edits)},
    ]


def _outcome(events: list[dict]) -> tuple:
    result = events[-2]
    receipt = json.loads(Path(result["receipt"]).read_text())
    spans = [_span_names(root) for root in receipt["ledger"]["spans"]]
    return events[-1]["code"], result["answer"], receipt["answer"], spans


@linux_only
class TestWarmChild:
    def test_one_child_serves_every_job_kind_like_fresh_children(
        self, tmp_path
    ):
        specs = _mixed_jobs(tmp_path)
        fresh = []
        for i, spec in enumerate(specs):
            (tmp_path / f"fresh{i}").mkdir()
            child = Runner(tmp_path / f"fresh{i}")
            fresh.append(_outcome(child.run(spec)))
            assert child.close() == 0

        (tmp_path / "warm").mkdir()
        warm = Runner(tmp_path / "warm")
        served, pids, fds = [], set(), []
        for i, spec in enumerate(specs):
            events = warm.run(spec, job_id=f"job-{i:04d}")
            pids.add(events[0]["pid"])
            served.append(_outcome(events))
            fds.append(_fd_count(warm.proc.pid))
        assert warm.close() == 0

        assert pids == {warm.proc.pid}
        assert all(outcome[0] == 0 for outcome in served)
        assert served == fresh
        assert fds == [fds[0]] * len(specs)


class TestSlotLifecycle:
    """A supervisor's worker slot around its one child."""

    def test_child_dying_idle_is_replaced_without_a_resume(
        self, graph_file, tmp_path
    ):
        async def scenario():
            config = ServiceConfig(workers=1, workdir=str(tmp_path / "work"))
            async with Supervisor(config) as sup:
                first = sup.submit(JobSpec(graph_file, k=2, seed=1))
                await first.result_dict()
                os.kill(first.child_pid, signal.SIGKILL)  # idle now
                second = sup.submit(JobSpec(graph_file, k=2, seed=2))
                await second.result_dict()
            return first, second, sup

        first, second, sup = asyncio.run(scenario())
        assert second.state == "done" and second.resumes == 0
        assert second.child_pid != first.child_pid
        assert not _running(second.child_pid)  # drain ended the child
        counters = sup.tracer.registry.as_dict()["counters"]
        assert "service_worker_crashes" not in counters
        assert "service_jobs_resumed" not in counters

    def test_chatty_child_is_drained_and_its_last_line_kept(
        self, graph_file, tmp_path
    ):
        # A "runner" that floods stderr far past a pipe buffer, then
        # dies: the slot must keep draining (or the child blocks and
        # the job hangs) and report the flood's last line.
        chatty = tmp_path / "chatty-python"
        chatty.write_text(
            f"#!{sys.executable}\n"
            "import sys\n"
            "sys.stderr.write('noise\\n' * 200000)\n"
            "sys.stderr.write('the last line\\n')\n"
            "sys.exit(1)\n"
        )
        chatty.chmod(0o755)

        async def scenario():
            config = ServiceConfig(
                workers=1, workdir=str(tmp_path / "work"), python=str(chatty)
            )
            async with Supervisor(config) as sup:
                job = sup.submit(JobSpec(graph_file, k=2, seed=1))
                with pytest.raises(ServiceError):
                    await asyncio.wait_for(job.result_dict(), 60)
            return job

        job = asyncio.run(scenario())
        assert job.error == "worker exited 1: the last line"


def _serve(workdir: Path) -> tuple[subprocess.Popen, str]:
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", str(workdir),
         "--http", "127.0.0.1:0", "--workers", "2"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        env=_env(),
    )
    banner = proc.stdout.readline()
    if "gateway listening on " not in banner:
        proc.kill()
        proc.wait()
        pytest.fail(f"no gateway banner, got {banner!r}")
    return proc, banner.split("gateway listening on ")[1].strip()


def _runner_pids(url: str, graph_file: str, seeds) -> set[int]:
    """Solve one job per seed; the runner pids their ``started`` named."""
    client = GatewayClient(url, timeout_s=60.0)
    pids = set()
    for seed in seeds:
        spec = JobSpec(graph_file, k=2, seed=seed)
        _, result = client.solve(spec)
        assert result["state"] == "done"
        status, doc = client.job(spec.content_key())
        assert status == 200
        pids.add(doc["pid"])
    return pids


def _running(pid: int) -> bool:
    """Alive and not a zombie (an orphan's zombie may linger unreaped)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


@linux_only
class TestServeLifecycle:
    def test_sigterm_leaves_no_runner_alive(self, graph_file, tmp_path):
        proc, url = _serve(tmp_path / "work")
        try:
            pids = _runner_pids(url, graph_file, seeds=(1, 2, 3))
        finally:
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=60) == 130
            proc.stdout.close()
        assert pids and None not in pids
        assert not [pid for pid in pids if _running(pid)]

    def test_sigkilled_gateway_idle_runners_exit_on_eof(
        self, graph_file, tmp_path
    ):
        proc, url = _serve(tmp_path / "work")
        try:
            pids = _runner_pids(url, graph_file, seeds=(1, 2))
        finally:
            proc.kill()
            proc.wait(timeout=60)
            proc.stdout.close()
        assert pids and None not in pids
        deadline = time.monotonic() + 5.0
        while any(_running(pid) for pid in pids) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not [pid for pid in pids if _running(pid)]
