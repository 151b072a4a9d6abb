"""Unit tests for the simulated QPU sampler."""

import pytest

from repro.annealing import (
    BinaryQuadraticModel,
    QPURuntimeExceeded,
    SimulatedQPUSampler,
    chimera_graph,
)


@pytest.fixture(scope="module")
def qpu():
    return SimulatedQPUSampler(hardware=chimera_graph(4), max_call_time_us=1000.0)


def _toy_bqm():
    # minimum at x = (1, 1, 0): E = -3
    return BinaryQuadraticModel(
        {"a": -2.0, "b": -2.0, "c": 1.0},
        {("a", "b"): 1.0, ("b", "c"): 2.0},
    )


class TestValidation:
    def test_bad_annealing_time(self, qpu):
        with pytest.raises(ValueError):
            qpu.sample(_toy_bqm(), annealing_time_us=0)

    def test_bad_reads(self, qpu):
        with pytest.raises(ValueError):
            qpu.sample(_toy_bqm(), num_reads=0)

    def test_runtime_cap_enforced(self, qpu):
        with pytest.raises(QPURuntimeExceeded):
            qpu.sample(_toy_bqm(), annealing_time_us=100, num_reads=100)

    def test_cap_disabled(self):
        sampler = SimulatedQPUSampler(
            hardware=chimera_graph(2), max_call_time_us=None
        )
        ss = sampler.sample(_toy_bqm(), annealing_time_us=100, num_reads=20, seed=0)
        assert ss.info["total_runtime_us"] == pytest.approx(2000)

    def test_exactly_at_cap_is_accepted(self, qpu):
        # cap is 1000 us: 10 us x 100 reads sits exactly on the boundary.
        ss = qpu.sample(_toy_bqm(), annealing_time_us=10, num_reads=100, seed=0)
        assert ss.info["total_runtime_us"] == pytest.approx(1000.0)

    def test_one_read_over_cap_is_rejected(self, qpu):
        with pytest.raises(QPURuntimeExceeded) as excinfo:
            qpu.sample(_toy_bqm(), annealing_time_us=10, num_reads=101, seed=0)
        assert excinfo.value.requested_us == pytest.approx(1010.0)
        assert excinfo.value.cap_us == pytest.approx(1000.0)

    def test_max_reads_helper(self, qpu):
        assert qpu.max_reads(10.0) == 100
        assert qpu.max_reads(3.0) == 333
        uncapped = SimulatedQPUSampler(
            hardware=chimera_graph(2), max_call_time_us=None
        )
        assert uncapped.max_reads(10.0) is None

    def test_non_finite_bias_rejected(self, qpu):
        bad = BinaryQuadraticModel({"a": float("nan")})
        with pytest.raises(ValueError, match="non-finite"):
            qpu.sample(bad, annealing_time_us=1, num_reads=1)


class TestFixedChipEmbedding:
    def test_too_small_chip_raises_without_expansion(self):
        # A C1 Chimera cell (8 qubits, bipartite) cannot host a clique on
        # many densely coupled logical variables.
        from repro.annealing import EmbeddingError

        sampler = SimulatedQPUSampler(
            hardware=chimera_graph(1),
            max_call_time_us=None,
            allow_hardware_expansion=False,
        )
        n = 12
        dense = BinaryQuadraticModel(
            {i: -1.0 for i in range(n)},
            {(i, j): 1.0 for i in range(n) for j in range(i + 1, n)},
        )
        with pytest.raises(EmbeddingError):
            sampler.sample(dense, annealing_time_us=1, num_reads=2, seed=0)

    def test_expansion_flagged_when_allowed(self):
        sampler = SimulatedQPUSampler(
            hardware=chimera_graph(1), max_call_time_us=None
        )
        n = 12
        dense = BinaryQuadraticModel(
            {i: -1.0 for i in range(n)},
            {(i, j): 1.0 for i in range(n) for j in range(i + 1, n)},
        )
        ss = sampler.sample(dense, annealing_time_us=1, num_reads=2, seed=0)
        assert ss.info["hardware_expanded"] is True


class TestSampling:
    def test_solves_toy_model(self, qpu):
        ss = qpu.sample(_toy_bqm(), annealing_time_us=5, num_reads=50, seed=0)
        assert ss.lowest_energy == pytest.approx(-3.0)
        assert ss.first.assignment == {"a": 1, "b": 1, "c": 0}

    def test_info_fields(self, qpu):
        ss = qpu.sample(_toy_bqm(), annealing_time_us=2, num_reads=10, seed=1)
        info = ss.info
        assert info["annealing_time_us"] == 2
        assert info["num_reads"] == 10
        assert info["total_runtime_us"] == pytest.approx(20)
        assert info["average_chain_length"] >= 1.0
        assert 0.0 <= info["chain_break_fraction"] <= 1.0

    def test_sweeps_scale_with_annealing_time(self, qpu):
        short = qpu.sample(_toy_bqm(), annealing_time_us=1, num_reads=5, seed=2)
        long = qpu.sample(_toy_bqm(), annealing_time_us=50, num_reads=5, seed=2)
        assert long.info["sweeps_per_read"] > short.info["sweeps_per_read"]

    def test_embedding_cached(self, qpu):
        bqm = _toy_bqm()
        first = qpu.embed(bqm, seed=0)
        second = qpu.embed(bqm, seed=99)  # cache hit ignores the new seed
        assert first is second

    def test_embedding_cache_keys_on_exact_labels(self):
        # Labels 1, 2 and '1', '2' print alike; each model needs its own
        # embedding, keyed by its own variables.
        sampler = SimulatedQPUSampler(hardware=chimera_graph(2), max_call_time_us=None)
        ints = BinaryQuadraticModel({1: -1.0, 2: -1.0}, {(1, 2): 2.0})
        strs = BinaryQuadraticModel({"1": -1.0, "2": -1.0}, {("1", "2"): 2.0})
        assert set(sampler.embed(ints, seed=0).chains) == {1, 2}
        assert set(sampler.embed(strs, seed=0).chains) == {"1", "2"}
        ss = sampler.sample(strs, annealing_time_us=1, num_reads=4, seed=0)
        assert set(ss.first.assignment) == {"1", "2"}

    def test_embedding_cache_ignores_edge_orientation_and_order(self):
        sampler = SimulatedQPUSampler(hardware=chimera_graph(2), max_call_time_us=None)
        forward = BinaryQuadraticModel({"a": 1.0, "b": 1.0, "c": 1.0},
                                       {("a", "b"): 1.0, ("b", "c"): 1.0})
        backward = BinaryQuadraticModel({"c": 2.0, "b": 0.5, "a": 3.0},
                                        {("c", "b"): -1.0, ("b", "a"): 4.0})
        assert sampler.embed(forward, seed=0) is sampler.embed(backward, seed=1)
        chain = BinaryQuadraticModel({"a": 1.0, "b": 1.0, "c": 1.0},
                                     {("a", "c"): 1.0, ("b", "c"): 1.0})
        assert sampler.embed(chain, seed=0) is not sampler.embed(forward, seed=0)

    def test_logical_energies_reported(self, qpu):
        """Reported energies are of the LOGICAL model, not the embedded one."""
        bqm = _toy_bqm()
        ss = qpu.sample(bqm, annealing_time_us=5, num_reads=20, seed=3)
        for sample in ss:
            assert sample.energy == pytest.approx(bqm.energy(sample.assignment))


class TestNoise:
    def test_noise_free_sampler_more_reliable(self):
        noisy = SimulatedQPUSampler(
            hardware=chimera_graph(3), noise_scale=0.5, max_call_time_us=None
        )
        clean = SimulatedQPUSampler(
            hardware=chimera_graph(3), noise_scale=0.0, max_call_time_us=None
        )
        bqm = _toy_bqm()
        noisy_best = noisy.sample(bqm, annealing_time_us=2, num_reads=30, seed=4).lowest_energy
        clean_best = clean.sample(bqm, annealing_time_us=2, num_reads=30, seed=4).lowest_energy
        assert clean_best <= noisy_best + 1e-9


class TestSpinReversalTransforms:
    def test_gauge_preserves_energies(self):
        from repro.annealing.qpu import _gauge_transform

        bqm = _toy_bqm()
        flips = {"a", "c"}
        gauged = _gauge_transform(bqm, flips)
        for a in (0, 1):
            for b in (0, 1):
                for c in (0, 1):
                    x = {"a": a, "b": b, "c": c}
                    flipped = {v: (1 - val if v in flips else val) for v, val in x.items()}
                    assert gauged.energy(flipped) == pytest.approx(bqm.energy(x))

    def test_sampling_with_gauges_still_solves(self, qpu):
        ss = qpu.sample(
            _toy_bqm(), annealing_time_us=5, num_reads=40, seed=0,
            num_spin_reversal_transforms=4,
        )
        assert ss.lowest_energy == pytest.approx(-3.0)
        assert ss.info["num_spin_reversal_transforms"] == 4

    @pytest.mark.parametrize("mode", ["logical", "physical"])
    @pytest.mark.parametrize(
        "num_reads,gauges", [(10, 3), (7, 2), (2, 3), (1, 4), (9, 3), (5, 5)]
    )
    def test_takes_exactly_num_reads_shots(self, qpu, num_reads, gauges, mode):
        ss = qpu.sample(
            _toy_bqm(), annealing_time_us=2, num_reads=num_reads, seed=0,
            mode=mode, num_spin_reversal_transforms=gauges,
        )
        assert len(ss) == num_reads
        assert ss.info["num_reads"] == num_reads
        assert ss.info["num_spin_reversal_transforms"] == min(gauges, num_reads)

    def test_energies_reported_in_original_frame(self, qpu):
        bqm = _toy_bqm()
        ss = qpu.sample(
            bqm, annealing_time_us=5, num_reads=20, seed=1,
            num_spin_reversal_transforms=2,
        )
        for sample in ss:
            assert sample.energy == pytest.approx(bqm.energy(sample.assignment))


class TestColdSolves:
    def test_each_cold_qamkp_call_runs_the_embedding_search(self):
        # Only hardware graphs are memoised: a fresh sampler per call
        # means a fresh embedding search, whatever ran before.
        from unittest import mock

        from repro.annealing import qpu as qpu_module
        from repro.core import qamkp
        from repro.graphs import gnm_random_graph

        graph = gnm_random_graph(8, 16, seed=1)
        with mock.patch.object(
            qpu_module, "find_embedding", wraps=qpu_module.find_embedding
        ) as spy:
            first = qamkp(graph, 2, runtime_us=20.0, solver="qpu", seed=5)
            second = qamkp(graph, 2, runtime_us=20.0, solver="qpu", seed=5)
        assert spy.call_count == 2
        assert first.cost == second.cost and first.subset == second.subset
