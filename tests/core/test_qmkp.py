"""Unit tests for qMKP (Algorithm 3)."""

import numpy as np
import pytest

from repro.core import qmkp
from repro.datasets.paper_instances import GATE_INSTANCES
from repro.graphs import complete_graph, empty_graph, gnm_random_graph
from repro.kplex import is_kplex, maximum_kplex, maximum_kplex_bruteforce

GATE_CASES = [
    (name, inst, k)
    for name, inst in GATE_INSTANCES.items()
    for k in inst.known_optima
]


class TestOptimality:
    def test_paper_example(self, fig1, rng):
        result = qmkp(fig1, 2, rng=rng)
        assert result.subset == frozenset({0, 1, 3, 4})
        assert result.size == 4

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_bruteforce(self, k, seed):
        g = gnm_random_graph(7, 10, seed=seed)
        rng = np.random.default_rng(seed)
        result = qmkp(g, k, rng=rng)
        assert result.size == len(maximum_kplex_bruteforce(g, k))
        assert is_kplex(g, result.subset, k)

    def test_complete_graph(self, rng):
        result = qmkp(complete_graph(6), 1, rng=rng)
        assert result.size == 6

    def test_zero_vertices(self, rng):
        result = qmkp(empty_graph(0), 2, rng=rng)
        assert result.size == 0
        assert result.qtkp_calls == 0

    @pytest.mark.parametrize(
        "name,inst,k", GATE_CASES, ids=[f"{n}-k{k}" for n, _, k in GATE_CASES]
    )
    @pytest.mark.parametrize("counting", ["exact", "bbht"])
    def test_gate_instances_reach_known_optimum(self, name, inst, k, counting):
        graph = inst.build()
        expected = inst.known_optima[k]
        assert len(maximum_kplex(graph, k).subset) == expected
        result = qmkp(graph, k, counting=counting, rng=7)
        assert result.size == expected
        assert is_kplex(graph, result.subset, k)


class TestProgression:
    def test_progressive_results_are_recorded(self, fig1, rng):
        result = qmkp(fig1, 2, rng=rng)
        assert result.progression
        sizes = [event.size for event in result.progression]
        assert sizes == sorted(sizes)  # each new result is larger

    def test_first_result_at_least_half_optimum(self, rng):
        """The paper's progression guarantee of binary search."""
        for seed in range(4):
            g = gnm_random_graph(8, 14, seed=seed)
            result = qmkp(g, 2, rng=np.random.default_rng(seed))
            first = result.first_result
            assert first is not None
            assert first.size >= result.size / 2

    def test_first_result_arrives_early(self, fig1, rng):
        """Paper: first feasible answer within ~30% of the runtime."""
        result = qmkp(fig1, 2, rng=rng)
        assert result.first_result_fraction() < 0.5

    def test_binary_search_call_budget(self, fig1, rng):
        # ceil(log2) probes of the [1, upper-bound] interval.
        result = qmkp(fig1, 2, rng=rng)
        assert result.qtkp_calls <= 4


class TestOrthogonality:
    def test_reduction_preserves_answer(self, rng):
        g = gnm_random_graph(9, 18, seed=3)
        plain = qmkp(g, 2, rng=np.random.default_rng(1))
        reduced = qmkp(g, 2, reduce_first=True, rng=np.random.default_rng(1))
        assert reduced.size == plain.size

    def test_upper_bound_off_still_correct(self, fig1):
        result = qmkp(fig1, 2, use_upper_bound=False, rng=np.random.default_rng(2))
        assert result.size == 4


class TestAccounting:
    def test_costs_accumulate(self, fig1, rng):
        result = qmkp(fig1, 2, rng=rng)
        assert result.oracle_calls > 0
        assert result.gate_units > 0
        totals = result.oracle_costs_total
        assert totals["degree_count"] > totals["degree_compare"]

    def test_probe_log_kept(self, fig1, rng):
        result = qmkp(fig1, 2, rng=rng)
        assert len(result.probes) == result.qtkp_calls
        assert sum(p.oracle_calls for p in result.probes) == result.oracle_calls
