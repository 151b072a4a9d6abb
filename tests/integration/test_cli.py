"""Integration tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.datasets import figure1_graph
from repro.graphs import write_edge_list


@pytest.fixture
def graph_file(tmp_path):
    path = tmp_path / "fig1.txt"
    write_edge_list(figure1_graph(), path)
    return str(path)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_solve_defaults(self, graph_file):
        args = build_parser().parse_args(["solve", graph_file])
        assert args.k == 2
        assert args.solver == "bs"


class TestSolve:
    def test_bs(self, graph_file, capsys):
        assert main(["solve", graph_file, "-k", "2"]) == 0
        out = capsys.readouterr().out
        assert "maximum 2-plex size: 4" in out

    def test_bruteforce(self, graph_file, capsys):
        assert main(["solve", graph_file, "--solver", "bruteforce"]) == 0
        assert "size: 4" in capsys.readouterr().out

    def test_qmkp(self, graph_file, capsys):
        assert main(["solve", graph_file, "--solver", "qmkp", "--seed", "3"]) == 0
        assert "size: 4" in capsys.readouterr().out

    def test_qmkp_no_cache_matches_cached(self, graph_file, capsys):
        assert main([
            "solve", graph_file, "--solver", "qmkp", "--seed", "3", "--no-cache",
        ]) == 0
        uncached = capsys.readouterr().out
        assert main(["solve", graph_file, "--solver", "qmkp", "--seed", "3"]) == 0
        assert capsys.readouterr().out == uncached

    def test_qmkp_workers(self, graph_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main([
                "solve", graph_file, "--solver", "qmkp", "--seed", "3",
                "--workers", "2",
            ])
        assert exc.value.code == 2
        assert "unrecognized arguments: --workers 2" in capsys.readouterr().err

    def test_no_cache_requires_qmkp(self, graph_file, capsys):
        assert main(["solve", graph_file, "--no-cache"]) == 2
        assert "--no-cache requires --solver qmkp" in capsys.readouterr().err

    def test_qamkp_sa(self, graph_file, capsys):
        code = main([
            "solve", graph_file, "--solver", "qamkp-sa",
            "--runtime-us", "500", "--seed", "0",
        ])
        assert code == 0
        assert "objective cost" in capsys.readouterr().out


class TestCheck:
    def test_valid_plex(self, graph_file, capsys):
        assert main(["check", graph_file, "-k", "2", "0", "1", "3", "4"]) == 0
        assert "is a 2-plex" in capsys.readouterr().out

    def test_invalid_plex(self, graph_file, capsys):
        assert main(["check", graph_file, "-k", "2", "0", "1", "2", "3", "4"]) == 1
        assert "NOT" in capsys.readouterr().out

    def test_unknown_vertex(self, graph_file, capsys):
        assert main(["check", graph_file, "99"]) == 2


class TestInfoCommands:
    def test_qubo(self, graph_file, capsys):
        assert main(["qubo", graph_file, "-k", "3"]) == 0
        assert "slack variables" in capsys.readouterr().out

    def test_oracle(self, graph_file, capsys):
        assert main(["oracle", graph_file, "-k", "2", "-T", "4"]) == 0
        out = capsys.readouterr().out
        assert "degree count gates" in out


class TestEnumerate:
    def test_lists_maximal_plexes(self, graph_file, capsys):
        assert main(["enumerate", graph_file, "-k", "2", "--min-size", "4"]) == 0
        out = capsys.readouterr().out
        assert "size 4" in out
        assert "1 maximal 2-plex(es)" in out

    def test_limit(self, graph_file, capsys):
        assert main(["enumerate", graph_file, "-k", "2", "--limit", "1"]) == 0


class TestRelax:
    def test_club(self, graph_file, capsys):
        assert main(["relax", graph_file, "--model", "club", "-n", "3",
                     "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "maximum 3-club size: 6" in out

    def test_clan(self, graph_file, capsys):
        assert main(["relax", graph_file, "--model", "clan", "-n", "2",
                     "--seed", "1"]) == 0
        assert "maximum 2-clan size" in capsys.readouterr().out


class TestDraw:
    def test_small_circuit_drawn(self, tmp_path, capsys):
        from repro.graphs import Graph, write_edge_list

        path = tmp_path / "tiny.txt"
        write_edge_list(Graph(3, [(0, 1), (1, 2)]), path)
        assert main(["draw", str(path), "-k", "2", "-T", "2"]) == 0
        out = capsys.readouterr().out
        assert "|0>" in out
        assert "qubits" in out

    def test_too_large_refused(self, graph_file, capsys):
        # Fig. 1's oracle has 95 qubits: over the drawing limit.
        assert main(["draw", graph_file, "-k", "2", "-T", "4"]) == 2


class TestRobustness:
    def test_missing_file_exits_2(self, capsys):
        assert main(["solve", "/nonexistent/graph.txt"]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_malformed_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("0 1\nthis is not an edge\n")
        assert main(["solve", str(path)]) == 2
        err = capsys.readouterr().err
        assert "line 2" in err

    def test_non_integer_vertex_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("0 x\n")
        assert main(["solve", str(path)]) == 2
        assert "non-integer" in capsys.readouterr().err

    def test_runtime_exceeded_without_fallback_exits_2(self, graph_file, capsys):
        # 1e6 us of 1 us shots blows the default 2e4 us per-call cap.
        code = main([
            "solve", graph_file, "--solver", "qamkp-qpu",
            "--runtime-us", "1000000", "--seed", "0",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "--fallback" in err

    def test_inject_faults_requires_qpu_solver(self, graph_file, capsys):
        code = main([
            "solve", graph_file, "--solver", "qamkp-sa",
            "--inject-faults", "transient=1",
        ])
        assert code == 2
        assert "qamkp-qpu" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "solver", [[], ["--solver", "qmkp"], ["--solver", "bruteforce"]]
    )
    def test_k_zero_exits_2(self, graph_file, capsys, solver):
        assert main(["solve", graph_file, "-k", "0", *solver]) == 2
        assert capsys.readouterr().err == "error: k must be >= 1, got 0\n"

    def test_qmkp_too_wide_exits_2(self, tmp_path, capsys):
        path = tmp_path / "wide.txt"
        path.write_text("".join(f"{v} {v + 1}\n" for v in range(29)))  # n = 30
        assert main(["solve", str(path), "--solver", "qmkp"]) == 2
        assert "supports n <= 26" in capsys.readouterr().err

    def test_qmkp_no_cache_too_wide_exits_2(self, tmp_path, capsys):
        path = tmp_path / "wide.txt"
        path.write_text("".join(f"{v} {v + 1}\n" for v in range(26)))  # n = 27
        assert main(["solve", str(path), "--solver", "qmkp", "--no-cache"]) == 2
        assert "supports n <= 26" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["bogus", "numba"])
    @pytest.mark.parametrize("solver", ["qmkp", "qamkp-sa", "bs"])
    def test_unknown_kernel_env_exits_2(
        self, graph_file, capsys, monkeypatch, name, solver
    ):
        monkeypatch.setenv("REPRO_KERNEL", name)
        assert main(["solve", graph_file, "--solver", solver]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"error: REPRO_KERNEL: unknown kernel backend {name!r}; "
            "expected one of ('auto', 'numpy', 'cext')"
        ]

    def test_bad_fault_spec_exits_2(self, graph_file, capsys):
        code = main([
            "solve", graph_file, "--solver", "qamkp-qpu",
            "--inject-faults", "gremlins=1",
        ])
        assert code == 2
        assert "unknown fault class" in capsys.readouterr().err


class TestTracedSolve:
    def test_trace_writes_verified_ledger(self, graph_file, tmp_path, capsys):
        import json

        ledger_path = tmp_path / "ledger.json"
        code = main([
            "solve", graph_file, "--solver", "qmkp", "--seed", "3",
            "--trace", str(ledger_path),
        ])
        assert code == 0
        doc = json.loads(ledger_path.read_text())
        assert doc["schema"] == "repro.obs/run-ledger/v1"
        assert doc["verified"] is True
        assert doc["drift"] == []
        assert doc["meta"]["solver"] == "qmkp"
        assert doc["spans"][0]["name"] == "qmkp"
        assert doc["totals"]["oracle_calls"] > 0

    def test_trace_does_not_change_the_answer(self, graph_file, tmp_path, capsys):
        assert main(["solve", graph_file, "--solver", "qmkp", "--seed", "3"]) == 0
        plain = capsys.readouterr().out
        assert main([
            "solve", graph_file, "--solver", "qmkp", "--seed", "3",
            "--trace", str(tmp_path / "l.json"),
        ]) == 0
        assert capsys.readouterr().out == plain

    def test_metrics_json(self, graph_file, capsys):
        import json

        code = main([
            "solve", graph_file, "--solver", "qmkp", "--seed", "3",
            "--metrics", "json",
        ])
        assert code == 0
        out = capsys.readouterr().out
        doc = json.loads(out[out.index("{"):])
        assert doc["counters"]["qtkp_calls"] > 0

    def test_metrics_prometheus(self, graph_file, capsys):
        code = main([
            "solve", graph_file, "--solver", "qamkp-qpu",
            "--runtime-us", "500", "--seed", "0",
            "--retries", "2", "--inject-faults", "transient=1,seed=1",
            "--metrics", "prom",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_resilience_attempts counter" in out
        assert "repro_qamkp_solves_total 1" in out

    def test_traced_resilient_solve_reconciles(self, graph_file, tmp_path, capsys):
        import json

        ledger_path = tmp_path / "ledger.json"
        code = main([
            "solve", graph_file, "--solver", "qamkp-qpu",
            "--runtime-us", "500", "--seed", "0",
            "--retries", "3", "--fallback",
            "--inject-faults", "transient=2,seed=1",
            "--trace", str(ledger_path),
        ])
        assert code == 0
        doc = json.loads(ledger_path.read_text())
        assert doc["verified"] is True
        assert doc["totals"]["resilience_attempts"] >= 1


class TestResilientSolve:
    def test_retries_and_fallback_flags(self, graph_file, capsys):
        code = main([
            "solve", graph_file, "--solver", "qamkp-qpu",
            "--runtime-us", "500", "--seed", "0",
            "--retries", "3", "--fallback",
            "--inject-faults", "transient=2,seed=1",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "objective cost" in out
        assert "backend:" in out
        assert "charged:" in out

    def test_fallback_answers_despite_embedding_failure(self, graph_file, capsys):
        code = main([
            "solve", graph_file, "--solver", "qamkp-qpu",
            "--runtime-us", "500", "--seed", "0", "--fallback",
            "--inject-faults", "embedding=1,seed=1",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "maximum 2-plex size:" in out
