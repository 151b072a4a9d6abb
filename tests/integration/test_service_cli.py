"""CLI integration: graceful SIGINT, checkpoint fresh-start, gateway.

Covers the operator-facing robustness contracts:

* ``solve --checkpoint`` interrupted by SIGINT exits 130 with a
  one-line "resumable at PATH" notice, and the follow-up run resumes
  to the bit-identical answer;
* a zero-length / torn-header checkpoint file is a fresh start, not a
  refusal (exit 0, no resume);
* ``submit --url`` against ``serve WORKDIR --http``: streaming,
  idempotent replay, and one-line exit-2 diagnoses when no gateway
  answers or a tenant pool is dry.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.graphs import gnm_random_graph, write_edge_list

REPO_SRC = str(Path(__file__).resolve().parents[2] / "src")


def _run_cli(args, tmp_path, extra_env=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
    for hook in ("QMKP_CRASH_AFTER_PROBES", "QMKP_SIGINT_AFTER_PROBES"):
        env.pop(hook, None)
    env.update(extra_env or {})
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120,
    )


@pytest.fixture
def graph_file(tmp_path):
    path = tmp_path / "gnm.edges"
    write_edge_list(gnm_random_graph(7, 10, seed=1), path)
    return str(path)


ARGS = ["-k", "2", "--solver", "qmkp", "--seed", "7"]


class TestGracefulInterrupt:
    def test_sigint_prints_resume_hint_and_exits_130(
        self, graph_file, tmp_path
    ):
        reference = _run_cli(["solve", graph_file, *ARGS], tmp_path)
        assert reference.returncode == 0, reference.stderr

        checkpoint = tmp_path / "probe.wal"
        # The deterministic SIGINT hook delivers a real SIGINT to the
        # process after the first journaled probe.
        interrupted = _run_cli(
            ["solve", graph_file, *ARGS, "--checkpoint", str(checkpoint)],
            tmp_path,
            extra_env={"QMKP_SIGINT_AFTER_PROBES": "1"},
        )
        assert interrupted.returncode == 130
        assert f"resumable at {checkpoint}" in interrupted.stderr
        # header + exactly the probe that completed before the signal
        assert len(checkpoint.read_text().splitlines()) == 2

        resumed = _run_cli(
            ["solve", graph_file, *ARGS, "--checkpoint", str(checkpoint)],
            tmp_path,
        )
        assert resumed.returncode == 0, resumed.stderr
        assert "resumed 1 probe(s)" in resumed.stdout
        assert (
            resumed.stdout.splitlines()[-2:]
            == reference.stdout.splitlines()[-2:]
        )

    def test_sigint_hook_is_scoped_to_journaled_runs(
        self, graph_file, tmp_path
    ):
        # The deterministic hook fires from the journal's append path;
        # without --checkpoint there is no journal, so the run completes
        # normally and no misleading resume hint is printed.
        result = _run_cli(
            ["solve", graph_file, *ARGS],
            tmp_path,
            extra_env={"QMKP_SIGINT_AFTER_PROBES": "1"},
        )
        assert result.returncode == 0, result.stderr
        assert "resumable at" not in result.stderr


class TestFreshStartCheckpoints:
    def test_zero_length_checkpoint_starts_fresh(self, graph_file, tmp_path):
        reference = _run_cli(["solve", graph_file, *ARGS], tmp_path)
        checkpoint = tmp_path / "empty.wal"
        checkpoint.touch()  # crash before the header fsync completed
        result = _run_cli(
            ["solve", graph_file, *ARGS, "--checkpoint", str(checkpoint)],
            tmp_path,
        )
        assert result.returncode == 0, result.stderr
        assert "resumed" not in result.stdout
        assert result.stdout == reference.stdout

    def test_torn_header_checkpoint_starts_fresh(self, graph_file, tmp_path):
        reference = _run_cli(["solve", graph_file, *ARGS], tmp_path)
        checkpoint = tmp_path / "torn.wal"
        checkpoint.write_text('{"schema": 1, "graph": "abc')
        result = _run_cli(
            ["solve", graph_file, *ARGS, "--checkpoint", str(checkpoint)],
            tmp_path,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout == reference.stdout
        # And the journal was rewritten into a valid one.
        header = json.loads(checkpoint.read_text().splitlines()[0])
        assert "schema" in header


class TestGatewayCLI:
    def _start_server(self, workdir, tmp_path, extra=()):
        """Launch ``serve WORKDIR --http`` and return (process, base_url)."""
        import threading

        env = dict(os.environ)
        env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve", str(workdir),
                "--http", "127.0.0.1:0", "--workers", "1", *extra,
            ],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=env, cwd=tmp_path,
        )
        banner: list[str] = []
        reader = threading.Thread(
            target=lambda: banner.append(proc.stdout.readline())
        )
        reader.start()
        reader.join(timeout=60)
        if not banner or "gateway listening on " not in banner[0]:
            proc.kill()
            raise AssertionError(f"no gateway banner, got {banner!r}")
        return proc, banner[0].split("gateway listening on ")[1].strip()

    def test_submit_url_streams_and_replays(self, graph_file, tmp_path):
        import signal

        proc, url = self._start_server(tmp_path / "work", tmp_path)
        try:
            waited = _run_cli(
                [
                    "submit", "--url", url, graph_file,
                    "-k", "2", "--seed", "7", "--wait",
                ],
                tmp_path,
            )
            assert waited.returncode == 0, waited.stderr
            assert "maximum 2-plex size:" in waited.stdout
            assert "incumbent: size" in waited.stdout

            # Identical spec again: attaches, never re-solves.
            again = _run_cli(
                ["submit", "--url", url, graph_file, "-k", "2", "--seed", "7"],
                tmp_path,
            )
            assert again.returncode == 0, again.stderr
            assert "(replayed)" in again.stdout
        finally:
            proc.send_signal(signal.SIGINT)
            out, err = proc.communicate(timeout=60)
        # SIGINT is the graceful-drain path: exit 130 with the hint.
        assert proc.returncode == 130, err
        assert "resumable" in err

    def test_submit_without_url_exits_2(self, graph_file, tmp_path):
        result = _run_cli(["submit", graph_file], tmp_path)
        assert result.returncode == 2
        assert "--url" in result.stderr

    def test_serve_without_http_exits_2(self, tmp_path):
        result = _run_cli(["serve", str(tmp_path / "work")], tmp_path)
        assert result.returncode == 2
        assert "--http" in result.stderr
        assert not (tmp_path / "work").exists()

    def test_unreachable_gateway_is_named_not_a_503(self, graph_file, tmp_path):
        result = _run_cli(
            ["submit", "--url", "http://127.0.0.1:1", graph_file, "--wait"],
            tmp_path,
        )
        assert result.returncode == 2
        lines = result.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "no gateway answered at http://127.0.0.1:1" in lines[0]
        assert "503" not in lines[0]
        assert result.stdout == ""

    def test_dry_tenant_pool_exits_2_at_once(self, graph_file, tmp_path):
        import signal
        import time

        proc, url = self._start_server(
            tmp_path / "work", tmp_path, ("--tenant-budget", "acme=1"),
        )
        try:
            first = _run_cli(
                [
                    "submit", "--url", url, graph_file,
                    "--tenant", "acme", "--seed", "7", "--wait",
                ],
                tmp_path,
            )
            assert first.returncode == 0, first.stderr
            start = time.monotonic()
            refused = _run_cli(
                [
                    "submit", "--url", url, graph_file,
                    "--tenant", "acme", "--seed", "8", "--wait",
                ],
                tmp_path,
            )
            elapsed = time.monotonic() - start
        finally:
            proc.send_signal(signal.SIGINT)
            proc.communicate(timeout=60)
        assert refused.returncode == 2
        lines = refused.stderr.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: gateway returned 429: tenant 'acme'")
        assert "budget exhausted" in lines[0]
        # Refused on the first answer, not after a retry ladder (the
        # default policy would spend ~6 s before giving up).
        assert elapsed < 5.0
