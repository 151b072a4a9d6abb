"""Gateway route: ``qmkp submit --url --wait`` against ``qmkp serve``.

One ``qmkp serve WORKDIR --http 127.0.0.1:0`` process serves the whole
module.  Every seeded instance is submitted through the CLI; the answer
it prints and the terminal event the gateway journaled must both be
the in-process default's, with a reconciled receipt.
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from repro.service import GatewayClient

from .corpus import NAMES, SEEDED, write_corpus

REPO_SRC = str(Path(__file__).resolve().parents[2] / "src")


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _submit(url: str, args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "repro", "submit", "--url", url, *args],
        capture_output=True, text=True, env=_env(), cwd=cwd, timeout=120,
    )


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    root = tmp_path_factory.mktemp("gateway")
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve", str(root / "work"),
            "--http", "127.0.0.1:0", "--workers", "2",
        ],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=_env(), cwd=root,
    )
    banner: list[str] = []
    reader = threading.Thread(target=lambda: banner.append(proc.stdout.readline()))
    reader.start()
    reader.join(timeout=60)
    if not banner or "gateway listening on " not in banner[0]:
        proc.kill()
        proc.communicate()
        pytest.fail(f"no gateway banner, got {banner!r}")
    url = banner[0].split("gateway listening on ")[1].strip()
    yield url, root
    proc.send_signal(signal.SIGINT)
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 130, err


@pytest.fixture(scope="module")
def submissions(server):
    url, root = server
    corpus = write_corpus(root)

    def submit(disk):
        inst = disk.instance
        return _submit(url, [
            str(disk.path), "-k", str(inst.k), "--seed", str(inst.seed),
            "--wait",
        ], root)

    with ThreadPoolExecutor(max_workers=3) as pool:
        done = list(pool.map(submit, corpus))
    return list(zip(corpus, done))


@pytest.mark.parametrize("index", range(len(SEEDED)), ids=NAMES)
def test_gateway_job(server, submissions, index):
    url, _ = server
    disk, result = submissions[index]
    assert result.returncode == 0, result.stderr
    out = result.stdout.splitlines()
    key = re.fullmatch(r"submitted ([0-9a-f]{16})", out[0]).group(1)
    printed = json.loads(out[-1].removeprefix("vertices: "))
    assert out[-2] == f"maximum {disk.instance.k}-plex size: {len(printed)}"

    # The gateway's journal replays the same answer as its terminal event.
    events = list(GatewayClient(url).stream_once(key, 0))
    assert [e["id"] for e in events] == list(range(1, len(events) + 1))
    terminal = events[-1]
    assert terminal["event"] == "result"
    assert terminal["data"]["state"] == "done"
    assert terminal["data"]["answer"]["vertices"] == printed
    disk.check_record(terminal["data"])


def test_failed_job_exits_1_with_the_workers_reason(server):
    url, root = server
    missing = root / "no-such-graph.edges"
    result = _submit(url, [str(missing), "--wait"], root)
    assert result.returncode == 1
    assert "job settled failed: worker exited 2" in result.stderr
    assert str(missing) in result.stderr
    assert "maximum" not in result.stdout


def test_completed_jobs_are_counted_in_prometheus_metrics(server, submissions):
    url, _ = server
    prom = GatewayClient(url).metrics("prom")
    completed = re.search(
        r"^repro_service_jobs_completed_total (\d+)$", prom, re.MULTILINE
    )
    assert completed is not None, prom
    assert int(completed.group(1)) == len(submissions)
