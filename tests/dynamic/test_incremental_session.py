"""IncrementalSolver: exact byte-identity, warm reuse, crash-resume.

The exact profile's contract — every step equals a cold solve of the
post-edit graph with the step's own seed, byte for byte — is what the
CI ``dynamic-smoke`` job gates on; these are the in-process versions.
"""

import os
import subprocess
import sys

import pytest

from repro.core import qmkp
from repro.dynamic import (
    Edit,
    IncrementalSolver,
    apply_labelled_edit,
    format_edits,
    parse_edits,
    read_edits,
)
from repro.graphs import gnm_random_graph
from repro.kplex import is_kplex, maximum_kplex
from repro.obs import Tracer


def cold_qmkp(session, step):
    return qmkp(session.graph.snapshot(), session.k, rng=session.step_rng(step))


def assert_step_matches_cold(step_result, cold):
    assert step_result.subset == cold.subset
    assert step_result.result.oracle_calls == cold.oracle_calls
    assert step_result.result.gate_units == cold.gate_units
    assert step_result.result.qtkp_calls == cold.qtkp_calls
    assert step_result.result.progression == cold.progression


class TestExactProfile:
    def test_byte_identity_over_mixed_edits(self):
        tracer = Tracer()
        session = IncrementalSolver(
            gnm_random_graph(9, 18, seed=1), 2, seed=5, tracer=tracer
        )
        assert_step_matches_cold(session.resolve(), cold_qmkp(session, 0))
        script = parse_edits("del 0 1\nadd 0 2\naddv\nadd 9 3\ndel 2 3\n")
        # Adapt the script to the instance: only apply legal edits.
        for edit in script:
            if edit.op == "add_vertex":
                session.add_vertex()
            elif edit.op == "add_edge":
                if not session.graph.has_edge(edit.u, edit.v):
                    session.add_edge(edit.u, edit.v)
                else:
                    session.remove_edge(edit.u, edit.v)
            elif session.graph.has_edge(edit.u, edit.v):
                session.remove_edge(edit.u, edit.v)
            else:
                session.add_edge(edit.u, edit.v)
            step = session.resolve()
            assert_step_matches_cold(step, cold_qmkp(session, step.step))
        # One enumeration per structure the stream visits.
        assert session.cache.stats()["misses"] == len(
            {s.fingerprint for s in session.history}
        )
        session.ledger().verify()

    def test_batched_edits_single_step(self):
        g = gnm_random_graph(8, 16, seed=2)
        session = IncrementalSolver(g, 2, seed=3)
        session.resolve()
        edges = sorted(g.edges)
        session.remove_edge(*edges[0])
        session.remove_edge(*edges[1])
        assert len(session.pending_edits) == 2
        step = session.resolve()
        assert step.step == 1 and len(step.edits) == 2
        assert_step_matches_cold(step, cold_qmkp(session, 1))
        assert session.pending_edits == ()

    def test_resolve_without_edits_is_cheap_and_identical(self):
        session = IncrementalSolver(gnm_random_graph(7, 12, seed=4), 2, seed=1)
        session.resolve()
        misses = session.cache.stats()["misses"]
        step = session.resolve()
        assert session.cache.stats()["misses"] == misses
        assert_step_matches_cold(step, cold_qmkp(session, 1))


class TestWarmProfile:
    @pytest.mark.parametrize("solver", ["qmkp", "bs"])
    def test_same_optimum_size_as_exact(self, solver):
        g = gnm_random_graph(9, 20, seed=5)
        session = IncrementalSolver(g, 2, solver=solver, profile="warm", seed=2)
        session.resolve()
        for u, v in sorted(g.edges)[:3]:
            session.remove_edge(u, v)
            step = session.resolve()
            reference = maximum_kplex(session.graph.snapshot(), 2)
            assert step.size == reference.size
            assert is_kplex(session.graph.snapshot(), step.subset, 2)
            assert step.warm_start_hits == 1

    def test_qamkp_sa_warm_start_recorded(self):
        session = IncrementalSolver(
            gnm_random_graph(8, 16, seed=6), 2,
            solver="qamkp-sa", profile="warm", seed=9, runtime_us=500.0,
        )
        first = session.resolve()
        assert first.warm_start_hits == 0  # nothing to carry yet
        session.add_edge(*next(
            (u, v) for u in range(8) for v in range(u + 1, 8)
            if not session.graph.has_edge(u, v)
        ))
        second = session.resolve()
        assert second.warm_start_hits == 1
        assert second.result.info.get("warm_start") is True
        assert is_kplex(session.graph.snapshot(), second.subset, 2)

    def test_warm_claims_reconcile(self):
        tracer = Tracer()
        session = IncrementalSolver(
            gnm_random_graph(8, 14, seed=7), 2, profile="warm", seed=3,
            tracer=tracer,
        )
        session.resolve()
        session.remove_edge(*sorted(session.graph.snapshot().edges)[0])
        session.resolve()
        session.ledger().verify()


class TestValidation:
    def test_provided_empty_cache_is_adopted(self):
        # Regression: ``MarkedSetCache`` is falsy while empty, so a
        # ``cache or MarkedSetCache()`` default silently replaced the
        # caller's cache — breaking any external observer of its stats.
        from repro.perf import MarkedSetCache

        cache = MarkedSetCache()
        session = IncrementalSolver(
            gnm_random_graph(6, 9, seed=8), 2, seed=1, cache=cache
        )
        assert session.cache is cache
        session.resolve()
        assert cache.stats()["misses"] == 1

    def test_bad_solver_and_profile(self):
        g = gnm_random_graph(5, 5, seed=8)
        with pytest.raises(ValueError):
            IncrementalSolver(g, 2, solver="milp")
        with pytest.raises(ValueError):
            IncrementalSolver(g, 2, profile="hot")

    def test_warm_rejects_reduce_first_in_qmkp(self):
        g = gnm_random_graph(6, 9, seed=9)
        with pytest.raises(ValueError):
            qmkp(g, 2, reduce_first=True, warm=frozenset({0}))

    def test_qmkp_warm_seed_verified(self):
        # A 1-plex is a clique; 6 vertices with only 5 edges cannot be
        # one, so the full vertex set is always an invalid warm seed.
        g = gnm_random_graph(6, 5, seed=10)
        bad = frozenset(range(6))
        assert not is_kplex(g, bad, 1)
        with pytest.raises(ValueError):
            qmkp(g, 1, warm=bad)


class TestEditScripts:
    def test_roundtrip(self):
        edits = [Edit("add_edge", 1, 2), Edit("remove_edge", 0, 3),
                 Edit("add_vertex"), Edit("add_vertex", 17)]
        assert parse_edits(format_edits(edits)) == edits

    def test_comments_and_errors(self, tmp_path):
        assert parse_edits("# c\n% c\n\nadd 1 2\n") == [Edit("add_edge", 1, 2)]
        with pytest.raises(ValueError, match="line 1"):
            parse_edits("frobnicate 1 2\n")
        with pytest.raises(ValueError, match="line 2"):
            parse_edits("add 1 2\nadd 1\n")
        path = tmp_path / "edits.txt"
        path.write_text("del 4 5\n")
        assert read_edits(path) == [Edit("remove_edge", 4, 5)]

    def test_apply_labelled_edit_translates_and_grows(self):
        from repro.dynamic import DynamicGraph

        dg = DynamicGraph(3, [(0, 1)])
        labels = {0: 10, 1: 20, 2: 30}
        applied = apply_labelled_edit(dg, Edit("add_edge", 30, 10), labels)
        assert applied == Edit("add_edge", 0, 2)  # endpoints normalised
        assert dg.has_edge(0, 2)
        apply_labelled_edit(dg, Edit("add_vertex"), labels)
        assert labels[3] == 31  # one past the largest numeric label
        with pytest.raises(ValueError, match="unknown vertex label"):
            apply_labelled_edit(dg, Edit("add_edge", 10, 99), labels)
        with pytest.raises(ValueError, match="already names"):
            apply_labelled_edit(dg, Edit("add_vertex", 20), labels)


CRASH_SCRIPT = r"""
import sys
import numpy as np
from repro.dynamic import IncrementalSolver
from repro.graphs import gnm_random_graph

g0 = gnm_random_graph(9, 18, seed=6)
session = IncrementalSolver(g0, 2, seed=11, checkpoint_dir=sys.argv[1])
r0 = session.resolve()
session.remove_edge(*sorted(g0.edges)[2])
r1 = session.resolve()
print(sorted(r0.subset), r0.result.oracle_calls, "|",
      sorted(r1.subset), r1.result.oracle_calls, "|",
      r0.resumed_probes + r1.resumed_probes)
"""


class TestCheckpointResume:
    def test_sigkill_resume_is_byte_identical(self, tmp_path):
        repo_src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env = dict(os.environ, PYTHONPATH=os.path.abspath(repo_src))
        env.pop("QMKP_SIGINT_AFTER_PROBES", None)
        workdir = tmp_path / "wals"

        def run(extra_env):
            return subprocess.run(
                [sys.executable, "-c", CRASH_SCRIPT, str(workdir)],
                env={**env, **extra_env}, capture_output=True, text=True,
            )

        crashes = 0
        for _ in range(25):
            proc = run({"QMKP_CRASH_AFTER_PROBES": "2"})
            if proc.returncode == 0:
                break
            assert proc.returncode == -9, proc.stderr
            crashes += 1
        else:
            pytest.fail("crash loop never completed")
        assert crashes >= 1
        resumed = proc.stdout.strip().rsplit("|", 1)
        # Cold reference needs a pristine workdir (the crash one holds
        # completed WALs a fresh run would itself resume from).
        proc_cold = subprocess.run(
            [sys.executable, "-c", CRASH_SCRIPT, str(tmp_path / "cold")],
            env=env, capture_output=True, text=True,
        )
        assert proc_cold.returncode == 0, proc_cold.stderr
        cold = proc_cold.stdout.strip().rsplit("|", 1)
        assert resumed[0] == cold[0]      # answers + costs byte-identical
        assert int(resumed[1]) > 0        # and probes really were replayed
        assert int(cold[1]) == 0

    def test_corrupt_step_journal_falls_back_to_fresh(self, tmp_path):
        g = gnm_random_graph(7, 12, seed=7)
        workdir = tmp_path / "wals"
        session = IncrementalSolver(g, 2, seed=4, checkpoint_dir=workdir)
        session.resolve()
        # Re-run the same step in a new session against a WAL written
        # for a *different* instance: resume must be refused and the
        # step solved fresh, still byte-identical to cold.
        other = IncrementalSolver(
            gnm_random_graph(7, 11, seed=8), 2, seed=4, checkpoint_dir=workdir
        )
        step = other.resolve()
        assert_step_matches_cold(step, cold_qmkp(other, 0))
