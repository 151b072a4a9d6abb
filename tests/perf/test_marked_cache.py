"""Cross-threshold caching: bit-identical results, one sweep.

The contract the whole perf subsystem rests on: a
:class:`MarkedSetCache`-backed pipeline returns byte-identical subsets,
oracle-call counts, and gate units to the per-probe predicate-scan
path, while evaluating the k-cplex property exactly once per
``(graph, k)``.
"""

import numpy as np
import pytest

from repro.core import qmkp, qtkp
from repro.core.oracle import KCplexOracle
from repro.core.subset_search import grover_maximum_subset, maximum_clique_quantum
from repro.graphs import Graph, gnm_random_graph
from repro.grover import PhaseOracleGrover
from repro.perf import MarkedSetCache, MarkedSetTable, PredicateMaskCache, kplex_masks


class TestMarkedSetTable:
    def setup_method(self):
        self.graph = gnm_random_graph(8, 15, seed=1)
        masks, sizes = kplex_masks(self.graph, 2)
        self.masks, self.sizes = masks, sizes
        self.table = MarkedSetTable(8, masks, sizes)

    def test_masks_at_least_matches_filter(self):
        for t in range(10):
            want = sorted(int(m) for m, s in zip(self.masks, self.sizes) if s >= t)
            assert sorted(int(m) for m in self.table.masks_at_least(t)) == want

    def test_histogram_and_max_size(self):
        hist = self.table.size_histogram()
        assert int(hist.sum()) == self.table.num_marked
        assert self.table.max_marked_size() == int(np.max(self.sizes))

    def test_empty_table(self):
        table = MarkedSetTable(3, np.array([], dtype=np.int64), np.array([], dtype=np.int64))
        assert table.num_marked == 0
        assert table.max_marked_size() == -1
        assert table.masks_at_least(0).size == 0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            MarkedSetTable(3, np.array([1, 2]), np.array([1]))


class TestMarkedSetCache:
    def test_one_sweep_per_graph_k(self):
        cache = MarkedSetCache()
        graph = gnm_random_graph(7, 12, seed=2)
        for threshold in range(5):
            cache.marked(graph, 2, threshold)
        assert cache.stats() == {
            "hits": 4, "misses": 1, "patches": 0,
            "reused_partitions": 0, "entries": 1,
        }
        cache.marked(graph, 3, 1)
        assert cache.stats()["misses"] == 2

    def test_lru_eviction(self):
        cache = MarkedSetCache(max_entries=2)
        graphs = [gnm_random_graph(5, 6, seed=s) for s in range(3)]
        for g in graphs:
            cache.table(g, 2)
        assert len(cache) == 2
        cache.table(graphs[0], 2)  # evicted -> recomputed
        assert cache.misses == 4

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            MarkedSetCache(max_entries=0)

    def test_structurally_equal_graphs_share_one_table(self):
        # Keying on the structural fingerprint (not the object) means a
        # graph rebuilt from the same edge list — or round-tripped
        # through IO — hits the first graph's table.
        cache = MarkedSetCache()
        edges = [(0, 1), (1, 2), (2, 3), (0, 3), (1, 3)]
        first = Graph(5, edges)
        rebuilt = Graph(5, list(reversed(edges)))
        a = cache.table(first, 2)
        b = cache.table(rebuilt, 2)
        assert b is a
        assert cache.stats() == {
            "hits": 1, "misses": 1, "patches": 0,
            "reused_partitions": 0, "entries": 1,
        }

    def test_mutated_graph_does_not_serve_stale_table(self):
        # Regression: keying on the graph object let a graph whose
        # internals changed after insertion keep serving the marked set
        # of its *old* structure.  The fingerprint is recomputed from
        # the live edge set at every lookup, so mutation forces a fresh
        # sweep.
        cache = MarkedSetCache()
        graph = gnm_random_graph(6, 8, seed=11)
        stale = cache.table(graph, 2)
        # Simulate in-place structural mutation (the class is immutable
        # by convention only): overwrite every slot with the state of a
        # graph missing two edges.
        mutated = Graph(6, sorted(graph.edges)[:-2])
        for slot in ("_n", "_adj", "_edges", "_hash", "_adj_masks"):
            object.__setattr__(graph, slot, getattr(mutated, slot))
        fresh = cache.table(graph, 2)
        assert fresh is not stale
        assert cache.misses == 2
        # And the fresh table really reflects the mutated edge set.
        want_masks, _ = kplex_masks(mutated, 2)
        assert np.array_equal(
            np.sort(fresh.masks_at_least(0)), np.sort(want_masks)
        )


class TestQmkpEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_cached_byte_identical(self, seed, k):
        graph = gnm_random_graph(9, 20, seed=seed)
        base = qmkp(graph, k, rng=np.random.default_rng(42), use_cache=False)
        fast = qmkp(graph, k, rng=np.random.default_rng(42), use_cache=True)
        assert fast.subset == base.subset
        assert fast.oracle_calls == base.oracle_calls
        assert fast.gate_units == base.gate_units
        assert fast.qtkp_calls == base.qtkp_calls
        assert fast.progression == base.progression
        assert fast.oracle_costs_total == base.oracle_costs_total

    def test_shared_cache_across_runs(self):
        graph = gnm_random_graph(8, 16, seed=3)
        cache = MarkedSetCache()
        first = qmkp(graph, 2, rng=np.random.default_rng(7), cache=cache)
        misses = cache.misses
        second = qmkp(graph, 2, rng=np.random.default_rng(7), cache=cache)
        assert cache.misses == misses  # table reused across runs
        assert second.subset == first.subset

    def test_reduce_first_still_identical(self):
        graph = gnm_random_graph(10, 18, seed=4)
        base = qmkp(graph, 2, reduce_first=True,
                    rng=np.random.default_rng(9), use_cache=False)
        fast = qmkp(graph, 2, reduce_first=True,
                    rng=np.random.default_rng(9), use_cache=True)
        assert fast.subset == base.subset
        assert fast.oracle_calls == base.oracle_calls

    def test_bbht_counting_identical(self):
        graph = gnm_random_graph(8, 14, seed=5)
        base = qtkp(graph, 2, 3, counting="bbht", rng=np.random.default_rng(3))
        fast = qtkp(graph, 2, 3, counting="bbht",
                    rng=np.random.default_rng(3), cache=MarkedSetCache())
        assert fast.subset == base.subset
        assert fast.oracle_calls == base.oracle_calls


class TestOracleCostMemo:
    """qTKP prices every probe's oracle from the complement's degree
    sequence: a cached probe builds no circuit, the uncached seed path
    builds one per probe for its predicate."""

    @pytest.fixture
    def builds(self, monkeypatch):
        built = []
        original = KCplexOracle.__init__

        def counting_init(oracle, *args, **kwargs):
            built.append(args)
            original(oracle, *args, **kwargs)

        monkeypatch.setattr(KCplexOracle, "__init__", counting_init)
        return built

    def test_one_build_per_cold_run(self, builds):
        """At most one build per cold run: pricing needs none at all."""
        graph = gnm_random_graph(9, 20, seed=1)
        first = qmkp(graph, 2, rng=np.random.default_rng(0))
        assert first.qtkp_calls > 1
        assert builds == []
        # No process-global state: a second cold run prices the same.
        second = qmkp(graph, 2, rng=np.random.default_rng(0))
        assert builds == []
        assert second.gate_units == first.gate_units

    def test_caller_kept_cache_shares_the_memo(self, builds):
        """Runs sharing a cache share its table and still build nothing."""
        graph = gnm_random_graph(9, 20, seed=1)
        cache = MarkedSetCache()
        first = qmkp(graph, 2, rng=np.random.default_rng(0), cache=cache)
        misses = cache.misses
        qmkp(graph, 2, rng=np.random.default_rng(1), cache=cache)
        assert cache.misses == misses
        assert builds == []
        uncached = qmkp(graph, 2, rng=np.random.default_rng(0), use_cache=False)
        assert first.gate_units == uncached.gate_units

    def test_uncached_run_builds_every_probe(self, builds):
        """The seed path still marks through the built oracle's predicate."""
        graph = gnm_random_graph(9, 20, seed=1)
        result = qmkp(graph, 2, rng=np.random.default_rng(0), use_cache=False)
        assert len(builds) == result.qtkp_calls


class TestSubsetSearchCache:
    def test_predicate_cache_matches_scan(self):
        graph = gnm_random_graph(7, 13, seed=6)

        def sparse(subset):
            members = sorted(subset)
            internal = sum(
                1 for i, u in enumerate(members) for v in members[i + 1:]
                if graph.has_edge(u, v)
            )
            return internal <= len(members)

        cache = PredicateMaskCache(graph, sparse)
        for t in range(1, 8):
            want = [
                m for m in range(1 << 7)
                if m.bit_count() >= t and sparse(graph.bitmask_to_subset(m))
            ]
            assert sorted(int(x) for x in cache.marked(t)) == want

    def test_maximum_subset_identical(self):
        graph = gnm_random_graph(8, 18, seed=7)

        def is_clique(subset):
            members = sorted(subset)
            return all(
                graph.has_edge(u, v)
                for i, u in enumerate(members) for v in members[i + 1:]
            )

        base = grover_maximum_subset(
            graph, is_clique, rng=np.random.default_rng(11), use_cache=False
        )
        fast = grover_maximum_subset(
            graph, is_clique, rng=np.random.default_rng(11), use_cache=True
        )
        assert fast.subset == base.subset
        assert fast.oracle_calls == base.oracle_calls
        assert [p.num_marked for p in fast.probes] == [p.num_marked for p in base.probes]

    def test_wrapper_uses_cache_by_default(self):
        graph = gnm_random_graph(7, 14, seed=8)
        result = maximum_clique_quantum(graph, rng=np.random.default_rng(2))
        assert result.size >= 2


class TestMarkedArrayOracleForm:
    def test_ndarray_equals_predicate_engine(self):
        graph = gnm_random_graph(8, 16, seed=9)
        masks, sizes = kplex_masks(graph, 2)
        marked = masks[sizes >= 3]
        from repro.core.oracle import KCplexOracle

        oracle = KCplexOracle(graph.complement(), 2, 3)
        slow = PhaseOracleGrover(8, oracle.predicate)
        fast = PhaseOracleGrover(8, marked)
        assert fast.marked == slow.marked
        iters = slow.optimal_iterations()
        assert np.array_equal(fast.run(iters).amplitudes, slow.run(iters).amplitudes)

    def test_ndarray_validation(self):
        with pytest.raises(ValueError):
            PhaseOracleGrover(3, np.array([9]))
        with pytest.raises(ValueError):
            PhaseOracleGrover(3, np.array([-1]))
        with pytest.raises(ValueError):
            PhaseOracleGrover(3, np.array([0.5]))

    def test_ndarray_deduplicated(self):
        engine = PhaseOracleGrover(3, np.array([1, 1, 5]))
        assert engine.marked == frozenset({1, 5})
