"""The benchmark's own tests: run with ``python -m pytest perfbench/tests``.

Tiny-scale runs exercise the same code paths as the full benchmark in
seconds; they check the output contract, that a wrong answer fails the
run, and that a vanished layer target is named instead of read as zero.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def _bench(*args: str, cwd: Path = ROOT) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc.returncode, proc.stdout


def _result(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace):
    code, stdout = _bench("--workload", workload, "--seed", "3", "--seconds", "1",
                          "--trace", str(trace), "--scale", "tiny")
    assert code == 0, stdout
    result = _result(stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = run.PER_LAYER if trace else [(n, u, "lower") for n, u in run.END_TO_END]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        name: unit for name, unit, _ in expected
    }
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    else:
        assert result["metrics"]["obs.ledger_drift"]["value"] == 0


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_wrong_answer_raises_error_rate_and_exit_code(workload):
    code, stdout = _bench("--workload", workload, "--seed", "3", "--seconds", "1",
                          "--scale", "tiny", "--inject-wrong-answer")
    result = _result(stdout)
    assert code == 1
    assert not result["correct"] and result["failed"] >= 1
    assert "error_rate" in stdout and "FAILED op" in stdout


def test_missing_layer_target_is_named_and_patches_nothing():
    from repro.grover.simulator import PhaseOracleGrover

    original = PhaseOracleGrover.run
    targets = (
        layers.Target("repro.grover.simulator", "PhaseOracleGrover.run", "grover.run"),
        layers.Target("repro.grover.simulator", "PhaseOracleGrover.gone", "grover.gone"),
    )
    with pytest.raises(layers.LayerTargetError,
                       match="repro.grover.simulator:PhaseOracleGrover.gone"):
        with layers.wrapped(layers.Recorder(), targets):
            pass
    assert PhaseOracleGrover.run is original
    with pytest.raises(layers.LayerTargetError, match="repro.no_such_module:f"):
        with layers.wrapped(layers.Recorder(), (layers.Target("repro.no_such_module", "f", "x"),)):
            pass


def test_wrappers_nest_with_program_spans_and_restore():
    import numpy as np
    from repro import qmkp
    from repro.graphs import gnm_random_graph
    from repro.kplex import verify
    from repro.obs import RunLedger, Tracer

    recorder, tracer = layers.Recorder(), Tracer()
    original = verify.is_kplex
    with layers.wrapped(recorder):
        recorder.bind(tracer)
        with tracer.span("bench.op"):
            qmkp(gnm_random_graph(8, 16, seed=1), 2, rng=np.random.default_rng(0),
                 tracer=tracer)
    assert verify.is_kplex is original
    table = layers.span_table(tracer.roots)
    qtkp = next(s for s in tracer.roots[0].walk() if s.name == "qtkp")
    assert {"grover.run", "core.oracle.build"} <= {c.name for c in qtkp.children}
    assert table["grover.run"]["count"] == table["qtkp"]["count"] - sum(
        1 for s in tracer.roots[0].walk()
        if s.name == "qtkp.attempt" and s.attributes.get("empty_marked_set")
    )
    assert RunLedger.from_tracer(tracer).verify(raise_on_drift=False) == []
    root = tracer.roots[0]
    covered = sum(c.duration_s for c in root.children)
    assert layers.self_time(root) == pytest.approx(root.duration_s - covered)


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert spec["paths"] == ["perfbench"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert run.WORKLOAD_NAMES == workloads.WORKLOADS
    assert [w["why"] for w in spec["workloads"]] == [workloads.WHY[w] for w in workloads.WORKLOADS]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(run.PER_LAYER)


def test_bare_directory_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    code, stdout = _bench("--workload", "qmkp-gate", "--seed", "1", "--seconds", "1",
                          "--trace", "0", cwd=tmp_path)
    assert code != 0
    assert stdout.strip() == ""
