"""The level-sweep enumerator IS the oracle predicate, vectorized.

Property tests tying :mod:`repro.perf.bitparallel` to the library's two
classical ground truths: ``KCplexOracle.predicate`` (direct graph
evaluation) and ``KCplexOracle.classical_eval`` (bit-level execution of
the constructed circuit) — on arbitrary small graphs, for every
``(k, T)``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.oracle import KCplexOracle
from repro.graphs import Graph, gnm_random_graph
from repro.perf import MAX_VERTICES, kplex_levels, kplex_masks, popcount_u64

from .sweep_reference import sweep_masks


@st.composite
def graphs_with_k(draw, max_n=6):
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    k = draw(st.integers(min_value=1, max_value=3))
    return Graph(n, edges), k


class TestPopcount:
    def test_matches_bit_count(self, rng):
        values = rng.integers(0, 1 << 63, size=500, dtype=np.uint64)
        expected = [int(v).bit_count() for v in values]
        assert popcount_u64(values).tolist() == expected

    def test_swar_fallback_matches(self, rng, monkeypatch):
        values = rng.integers(0, 1 << 63, size=500, dtype=np.uint64)
        native = popcount_u64(values)
        if hasattr(np, "bitwise_count"):
            monkeypatch.delattr(np, "bitwise_count")
        assert popcount_u64(values).tolist() == native.tolist()

    def test_boundary_words(self):
        values = np.array([0, 1, (1 << 64) - 1, 0xAAAAAAAAAAAAAAAA], dtype=np.uint64)
        assert popcount_u64(values).tolist() == [0, 1, 64, 32]


class TestEnumeratorAgreement:
    @given(graphs_with_k())
    @settings(max_examples=40, deadline=None)
    def test_kplex_masks_match_predicate_for_all_k_t(self, instance):
        graph, k = instance
        n = graph.num_vertices
        oracle = KCplexOracle(graph.complement(), k, 0)
        expected = [m for m in range(1 << n) if oracle.predicate(m)]
        masks, sizes = kplex_masks(graph, k)
        assert masks.tolist() == expected
        assert sizes.tolist() == [m.bit_count() for m in expected]
        for threshold in range(n + 1):
            thresholded = KCplexOracle(graph.complement(), k, threshold)
            want = [m for m in range(1 << n) if thresholded.predicate(m)]
            assert [m for m, s in zip(masks.tolist(), sizes.tolist()) if s >= threshold] == want

    @given(graphs_with_k(max_n=4))
    @settings(max_examples=15, deadline=None)
    def test_kplex_masks_match_circuit_eval(self, instance):
        graph, k = instance
        n = graph.num_vertices
        oracle = KCplexOracle(graph.complement(), k, 0)
        expected = [m for m in range(1 << n) if oracle.classical_eval(m)]
        assert kplex_masks(graph, k)[0].tolist() == expected

    def test_kcplex_is_kplex_of_complement(self):
        graph = gnm_random_graph(7, 12, seed=2)
        for k in (1, 2, 3):
            direct, _ = sweep_masks(graph.adjacency_masks(), k - 1)
            via_complement, _ = kplex_masks(graph.complement(), k)
            assert np.array_equal(direct, via_complement)

    def test_levels_are_the_size_classes(self):
        graph = gnm_random_graph(9, 20, seed=3)
        masks, sizes = kplex_masks(graph, 2)
        by_size, offsets = kplex_levels(graph, 2)
        for s in range(graph.num_vertices + 1):
            level = by_size[offsets[s]:offsets[s + 1]]
            assert level.tolist() == masks[sizes == s].tolist()


class TestScanCounter:
    def test_counts_the_children_tested(self):
        from repro.obs import Tracer

        graph = gnm_random_graph(8, 14, seed=5)
        tracer = Tracer()
        by_size, _ = kplex_levels(graph, 2, tracer=tracer)
        # Each member extends by every vertex above its top bit.
        n = graph.num_vertices
        want = sum(n - int(m).bit_length() for m in by_size.tolist())
        assert tracer.registry.counter("perf_masks_scanned").value == want


class TestGuards:
    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            kplex_masks(gnm_random_graph(4, 3, seed=0), 0)

    def test_width_ceiling(self):
        assert MAX_VERTICES == 26
        with pytest.raises(ValueError):
            kplex_masks(Graph(MAX_VERTICES + 1), 2)


class TestDegreeInMask:
    def test_matches_degree_in(self, rng):
        graph = gnm_random_graph(9, 17, seed=11)
        for _ in range(50):
            mask = int(rng.integers(0, 1 << 9))
            subset = graph.bitmask_to_subset(mask)
            for v in graph.vertices:
                assert graph.degree_in_mask(v, mask) == graph.degree_in(v, subset)

    def test_complement_adjacency_masks(self):
        graph = gnm_random_graph(8, 13, seed=4)
        comp = graph.complement()
        assert graph.complement_adjacency_masks() == comp.adjacency_masks()
