"""Property-based tests: incremental re-solves equal cold solves.

Hypothesis drives random graphs through random edit streams and pins
the exact profile's contract at every step: the incremental result is
byte-identical (subset, oracle calls, gate units, probe progression) to
a cold :func:`repro.core.qmkp` solve of the post-edit graph with the
step's own seed, and the session ledger's reuse claims reconcile.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import qmkp
from repro.dynamic import DynamicGraph, Edit, IncrementalSolver, surviving_kplex
from repro.graphs import Graph
from repro.kplex import is_kplex, maximum_kplex
from repro.obs import Tracer


@st.composite
def graphs(draw, min_n=3, max_n=7):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return Graph(n, edges)


@st.composite
def edit_streams(draw, graph, max_edits=4, allow_addv=True):
    """A legal edit sequence for ``graph`` (toggles tracked statefully)."""
    n = graph.num_vertices
    present = {tuple(sorted(e)) for e in graph.edges}
    ops = []
    for _ in range(draw(st.integers(min_value=1, max_value=max_edits))):
        choices = ["toggle"]
        if allow_addv and n < 8:
            choices.append("addv")
        kind = draw(st.sampled_from(choices))
        if kind == "addv":
            ops.append(Edit("add_vertex"))
            n += 1
            continue
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        u, v = draw(st.sampled_from(pairs))
        if (u, v) in present:
            present.discard((u, v))
            ops.append(Edit("remove_edge", u, v))
        else:
            present.add((u, v))
            ops.append(Edit("add_edge", u, v))
    return ops


class TestExactEquivalence:
    @given(data=st.data(), k=st.integers(1, 3), seed=st.integers(0, 999))
    @settings(max_examples=25, deadline=None)
    def test_every_step_matches_cold_solve(self, data, k, seed):
        graph = data.draw(graphs())
        edits = data.draw(edit_streams(graph))
        tracer = Tracer()
        session = IncrementalSolver(graph, k, seed=seed, tracer=tracer)
        session.resolve()
        for edit in edits:
            session.apply(edit)
            step = session.resolve()
            cold = qmkp(
                session.graph.snapshot(), k, rng=session.step_rng(step.step)
            )
            assert step.subset == cold.subset
            assert step.result.oracle_calls == cold.oracle_calls
            assert step.result.gate_units == cold.gate_units
            assert step.result.progression == cold.progression
        # One enumeration per structure the stream visits.
        assert session.cache.stats()["misses"] == len(
            {s.fingerprint for s in session.history}
        )
        session.ledger().verify()


class TestWarmEquivalence:
    @given(data=st.data(), k=st.integers(1, 3), seed=st.integers(0, 99))
    @settings(max_examples=15, deadline=None)
    def test_warm_profile_finds_same_optimum_size(self, data, k, seed):
        graph = data.draw(graphs(min_n=4))
        edits = data.draw(edit_streams(graph, max_edits=3, allow_addv=False))
        session = IncrementalSolver(graph, k, profile="warm", seed=seed)
        session.resolve()
        for edit in edits:
            session.apply(edit)
            step = session.resolve()
            reference = maximum_kplex(session.graph.snapshot(), k)
            assert step.size == reference.size
            assert is_kplex(session.graph.snapshot(), step.subset, k)


class TestSurvivingKplex:
    @given(data=st.data(), k=st.integers(1, 3))
    @settings(max_examples=40, deadline=None)
    def test_survivor_is_feasible_subset(self, data, k):
        graph = data.draw(graphs(min_n=4))
        optimum = maximum_kplex(graph, k).subset
        dg = DynamicGraph(graph)
        for edit in data.draw(edit_streams(graph, allow_addv=False)):
            dg.apply(edit)
        survivor = surviving_kplex(dg.snapshot(), optimum, k)
        if survivor is not None:
            assert survivor <= optimum
            assert is_kplex(dg.snapshot(), survivor, k)

    @given(data=st.data(), k=st.integers(1, 3))
    @settings(max_examples=30, deadline=None)
    def test_still_valid_subset_is_returned_verbatim(self, data, k):
        graph = data.draw(graphs(min_n=4))
        optimum = maximum_kplex(graph, k).subset
        assert surviving_kplex(graph, optimum, k) == optimum


class TestBatchFusion:
    """All-insertion batches keep every exact-profile guarantee."""

    @st.composite
    @staticmethod
    def _insert_batches(draw, graph, min_edits=2, max_edits=4):
        n = graph.num_vertices
        absent = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if not graph.has_edge(u, v)
        ]
        count = draw(st.integers(min_edits, min(max_edits, len(absent))))
        return draw(
            st.lists(
                st.sampled_from(absent),
                min_size=count,
                max_size=count,
                unique=True,
            )
        )

    @given(data=st.data(), k=st.integers(1, 3), seed=st.integers(0, 99))
    @settings(max_examples=25, deadline=None)
    def test_fused_step_matches_cold_solve(self, data, k, seed):
        graph = data.draw(graphs(min_n=4))
        n = graph.num_vertices
        if len(graph.edges) > n * (n - 1) // 2 - 2:
            return  # not enough absent edges to form a batch
        batch = data.draw(self._insert_batches(graph))
        tracer = Tracer()
        session = IncrementalSolver(graph, k, seed=seed, tracer=tracer)
        session.resolve()
        for u, v in batch:
            session.add_edge(u, v)
        step = session.resolve()
        cold = qmkp(
            session.graph.snapshot(), k, rng=session.step_rng(step.step)
        )
        assert step.subset == cold.subset
        assert step.result.oracle_calls == cold.oracle_calls
        assert step.result.gate_units == cold.gate_units
        assert step.result.progression == cold.progression
        # One enumeration for the whole batch, none per edit.
        assert session.cache.stats()["misses"] == 2
        session.ledger().verify()
