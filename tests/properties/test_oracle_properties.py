"""Property-based tests: the oracle circuit IS the k-plex predicate.

The strongest faithfulness property in the library: on arbitrary small
graphs, for every (k, T) and every basis state, the constructed
U_check circuit — executed gate by gate — computes exactly the
"k-cplex with size >= T" predicate and restores all ancillas.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import qtkp
from repro.core.oracle import KCplexOracle
from repro.graphs import Graph
from repro.kplex import is_kplex
from repro.perf import MarkedSetCache


@st.composite
def oracle_instances(draw, max_n=5):
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    g = Graph(n, edges)
    k = draw(st.integers(min_value=1, max_value=3))
    threshold = draw(st.integers(min_value=0, max_value=n))
    return g, k, threshold


class TestOracleFaithfulness:
    @given(oracle_instances())
    @settings(max_examples=40, deadline=None)
    def test_circuit_computes_predicate(self, instance):
        g, k, threshold = instance
        oracle = KCplexOracle(g.complement(), k, threshold)
        for mask in range(1 << g.num_vertices):
            subset = g.bitmask_to_subset(mask)
            expected = len(subset) >= threshold and is_kplex(g, subset, k)
            assert oracle.predicate(mask) == expected
            assert oracle.classical_eval(mask) == expected

    @given(oracle_instances())
    @settings(max_examples=30, deadline=None)
    def test_uncompute_clean_everywhere(self, instance):
        g, k, threshold = instance
        oracle = KCplexOracle(g.complement(), k, threshold)
        for mask in range(1 << g.num_vertices):
            assert oracle.uncompute_is_clean(mask)

    @given(oracle_instances())
    @settings(max_examples=30, deadline=None)
    def test_component_costs_consistent(self, instance):
        g, k, threshold = instance
        oracle = KCplexOracle(g.complement(), k, threshold)
        costs = oracle.component_costs()
        # U_check gates doubled plus the single mark equals the phase oracle.
        assert costs.total == oracle.phase_oracle_circuit().num_gates

    @given(oracle_instances(max_n=7), st.data())
    @settings(max_examples=40, deadline=None)
    def test_memoised_costs_equal_full_build(self, instance, data):
        """Probes sharing a cache price every threshold from one circuit."""
        g, k, _ = instance
        cache = MarkedSetCache()
        thresholds = data.draw(
            st.lists(st.integers(1, g.num_vertices), min_size=2, max_size=4)
        )
        for threshold in thresholds:
            result = qtkp(g, k, threshold, rng=0, cache=cache)
            full = KCplexOracle(g.complement(), k, threshold).component_costs()
            assert result.oracle_costs == full
