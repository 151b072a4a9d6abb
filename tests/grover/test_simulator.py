"""Unit tests for the Grover simulation backends."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.grover import PhaseOracleGrover, grover_circuit
from repro.quantum import QuantumCircuit, simulate


class TestPhaseOracleGrover:
    def test_marked_from_predicate(self):
        engine = PhaseOracleGrover(4, lambda m: m in (3, 7))
        assert engine.marked == frozenset({3, 7})

    def test_marked_from_iterable(self):
        engine = PhaseOracleGrover(3, [1, 5])
        assert engine.num_marked == 2

    def test_out_of_range_marked(self):
        with pytest.raises(ValueError):
            PhaseOracleGrover(2, [4])

    def test_width_bounds(self):
        with pytest.raises(ValueError):
            PhaseOracleGrover(0, [])
        with pytest.raises(ValueError):
            PhaseOracleGrover(40, [])

    def test_run_matches_closed_form(self):
        engine = PhaseOracleGrover(6, [13])
        for iters in (0, 1, 3, 6):
            run = engine.run(iters)
            assert run.success_probability == pytest.approx(
                engine.theoretical_success(iters)
            )

    def test_history_tracks_each_round(self):
        engine = PhaseOracleGrover(5, [7])
        run = engine.run(4)
        assert len(run.history) == 5
        assert run.history[0] == pytest.approx(1 / 32)

    def test_snapshots(self):
        engine = PhaseOracleGrover(4, [2])
        run = engine.run(3, snapshot_at=[0, 2])
        assert set(run.amplitude_snapshots) == {0, 2}
        assert run.amplitude_snapshots[0].shape == (16,)

    def test_optimal_iterations_zero_when_unmarked(self):
        assert PhaseOracleGrover(4, []).optimal_iterations() == 0

    def test_no_marked_states_stay_uniform(self):
        engine = PhaseOracleGrover(3, [])
        run = engine.run(2)
        assert np.allclose(run.amplitudes, 1 / np.sqrt(8))

    def test_measure_concentrates_on_solution(self, rng):
        engine = PhaseOracleGrover(6, [42])
        run = engine.run()
        counts = run.measure(2000, rng)
        assert counts.get(42, 0) > 1900

    def test_measure_once_returns_index(self, rng):
        engine = PhaseOracleGrover(4, [9])
        run = engine.run()
        assert 0 <= run.measure_once(rng) < 16

    def test_error_probability_property(self):
        engine = PhaseOracleGrover(6, [1])
        run = engine.run()
        assert run.error_probability == pytest.approx(1 - run.success_probability)

    def test_negative_iterations(self):
        with pytest.raises(ValueError):
            PhaseOracleGrover(3, [1]).run(-1)


class TestFullCircuitAgreement:
    def _phase_oracle_for(self, n, marked):
        """Textbook phase oracle: mark by multi-controlled Z."""
        qc = QuantumCircuit(n)
        for m in marked:
            values = [(m >> q) & 1 for q in range(n)]
            # flip zeros so all controls read 1, apply MCZ, flip back
            for q, v in enumerate(values):
                if not v:
                    qc.x(q)
            if n == 1:
                qc.z(0)
            else:
                qc.mcz(list(range(n - 1)), n - 1)
            for q, v in enumerate(values):
                if not v:
                    qc.x(q)
        return qc

    @pytest.mark.parametrize("marked", [[5], [1, 6], [0, 3, 7]])
    def test_dense_circuit_matches_phase_backend(self, marked):
        """Fig. 11 built literally must agree with the fast backend."""
        n = 3
        oracle = self._phase_oracle_for(n, marked)
        engine = PhaseOracleGrover(n, marked)
        iters = max(engine.optimal_iterations(), 1)
        circuit = grover_circuit(n, oracle, iters)
        sv = simulate(circuit)
        run = engine.run(iters)
        dense_probs = sv.probabilities()
        fast_probs = run.amplitudes ** 2
        assert np.allclose(dense_probs, fast_probs, atol=1e-9)


class TestMeasurementDistribution:
    def test_probabilities_normalized(self):
        engine = PhaseOracleGrover(4, [3, 9])
        run = engine.run(2)
        probs = run.probabilities()
        assert probs.sum() == pytest.approx(1.0)
        assert np.array_equal(probs, run.amplitudes ** 2 / (run.amplitudes ** 2).sum())

    def test_measure_paths_share_distribution(self):
        engine = PhaseOracleGrover(3, [5])
        run = engine.run(1)
        rng_a, rng_b = np.random.default_rng(0), np.random.default_rng(0)
        first = run.measure_once(rng_a)
        counts = run.measure(1, rng_b)
        assert counts == {first: 1}


@st.composite
def marked_arrays(draw):
    """A width and a marked-index array in any order, with repeats."""
    n = draw(st.integers(min_value=1, max_value=10))
    indices = draw(st.lists(st.integers(0, (1 << n) - 1), max_size=3 << n))
    dtype = draw(st.sampled_from([np.int64, np.int32, np.uint64]))
    return n, np.array(indices, dtype=dtype)


class TestMarkedArrayForm:
    """An unsorted or repeating marked array is the set ``np.unique``
    makes of it: same sorted array, same frozenset, same draws."""

    @given(marked_arrays(), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_matches_unique(self, case, seed):
        n, indices = case
        engine = PhaseOracleGrover(n, indices)
        unique = np.unique(indices.astype(np.int64))
        reference = PhaseOracleGrover(n, unique.tolist())
        assert engine.num_marked == unique.size
        assert engine.marked == frozenset(unique.tolist()) == reference.marked
        iterations = reference.optimal_iterations()
        assert engine.optimal_iterations() == iterations
        run, expected = engine.run(iterations), reference.run(iterations)
        assert run.sorted_marked.dtype == np.int64
        assert np.array_equal(run.sorted_marked, unique)
        assert run.marked == expected.marked
        assert run == expected
        assert run.measure(64, np.random.default_rng(seed)) == expected.measure(
            64, np.random.default_rng(seed)
        )
        assert run.measure_once(np.random.default_rng(seed)) == (
            expected.measure_once(np.random.default_rng(seed))
        )

    def test_input_array_left_untouched(self):
        indices = np.array([9, 3, 9, 1])
        PhaseOracleGrover(4, indices)
        assert indices.tolist() == [9, 3, 9, 1]

    def test_runs_over_different_marked_sets_differ(self):
        a = PhaseOracleGrover(4, np.array([3, 12])).run(1)
        b = PhaseOracleGrover(4, np.array([5, 10])).run(1)
        assert a.num_qubits == b.num_qubits
        assert a.history == b.history
        assert a != b
        assert a == PhaseOracleGrover(4, np.array([12, 3, 3])).run(1)
