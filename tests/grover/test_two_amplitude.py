"""The two-amplitude Grover engine against the dense ``2^n`` reference.

``dense_run`` below is the full-vector simulation the engine replaced:
the oracle sign-flips the marked entries and the diffusion inverts all
``2^n`` amplitudes about their mean.  The engine must reproduce its
amplitudes, history and success probability to 1e-12, and every
measurement must be the outcome ``Generator.choice(N, p=...)`` draws
from the dense distribution, leaving the generator in the same state.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.grover import PhaseOracleGrover

TOL = 1e-12


def dense_run(num_qubits, marked, iterations, depolarize=0.0):
    """Reference Grover run over the full amplitude vector.

    Returns ``(snapshots, history, probabilities, success)``, where
    ``snapshots[i]`` is the amplitude vector after ``i`` iterations.
    """
    dim = 1 << num_qubits
    idx = np.asarray(sorted(marked), dtype=np.int64)
    amp = np.full(dim, 1.0 / np.sqrt(dim))
    snapshots = {0: amp.copy()}
    history = [float(np.sum(amp[idx] ** 2))]
    for i in range(1, iterations + 1):
        amp[idx] *= -1.0                  # oracle sign flip
        amp = 2.0 * amp.mean() - amp      # inversion about the mean
        snapshots[i] = amp.copy()
        history.append(float(np.sum(amp[idx] ** 2)))
    weight = 1.0 - (1.0 - depolarize) ** iterations if depolarize else 0.0
    probs = amp ** 2
    probs = probs / probs.sum()
    success = history[-1]
    if weight:
        probs = (1.0 - weight) * probs + weight / dim
        success = (1.0 - weight) * success + weight * idx.size / dim
    return snapshots, history, probs, success


def assert_matches_dense(num_qubits, marked, iterations, depolarize, seed, shots):
    dim = 1 << num_qubits
    snapshots, history, probs, success = dense_run(
        num_qubits, marked, iterations, depolarize
    )
    run = PhaseOracleGrover(num_qubits, marked).run(
        iterations, snapshot_at=range(iterations + 1), depolarize=depolarize
    )
    np.testing.assert_allclose(run.amplitudes, snapshots[iterations], rtol=0, atol=TOL)
    assert set(run.amplitude_snapshots) == set(snapshots)
    for i, vector in run.amplitude_snapshots.items():
        np.testing.assert_allclose(vector, snapshots[i], rtol=0, atol=TOL)
    np.testing.assert_allclose(run.history, history, rtol=0, atol=TOL)
    assert abs(run.success_probability - success) <= TOL
    np.testing.assert_allclose(run.probabilities(), probs, rtol=0, atol=TOL)

    ours, reference = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(4):
        assert run.measure_once(ours) == int(reference.choice(dim, p=probs))
    values, counts = np.unique(
        reference.choice(dim, size=shots, p=probs), return_counts=True
    )
    assert run.measure(shots, ours) == {
        int(v): int(c) for v, c in zip(values, counts)
    }
    assert ours.bit_generator.state == reference.bit_generator.state


@st.composite
def instances(draw):
    num_qubits = draw(st.integers(1, 14))
    dim = 1 << num_qubits
    drawn = draw(st.sets(st.integers(0, dim - 1), max_size=24))
    kind = draw(st.sampled_from(["subset", "complement", "none", "all"]))
    marked = {
        "subset": drawn,
        "complement": set(range(dim)) - drawn,
        "none": set(),
        "all": set(range(dim)),
    }[kind]
    iterations = draw(st.integers(0, min(3 * int(np.sqrt(dim)) + 2, 200)))
    depolarize = draw(st.sampled_from([0.0, 0.0, 0.02, 0.3]))
    seed = draw(st.integers(0, 2**32 - 1))
    shots = draw(st.integers(1, 64))
    return num_qubits, marked, iterations, depolarize, seed, shots


class TestAgainstDenseReference:
    @given(instances())
    @settings(max_examples=150, deadline=None)
    def test_engine_matches_dense(self, instance):
        assert_matches_dense(*instance)

    @pytest.mark.parametrize(
        "num_qubits, marked, iterations, depolarize",
        [
            (6, {5, 17, 40}, 4, 0.05),          # depolarized
            (5, set(), 3, 0.0),                 # M = 0
            (4, set(range(16)), 3, 0.0),        # M = N
            (8, {3, 200}, 0, 0.0),              # 0 iterations
            (2, {1}, 1, 0.0),                   # unmarked amplitude exactly 0
            (2, {2}, 1, 0.1),                   # ... and depolarized
            (12, set(range(0, 4096, 3)), 2, 0.0),  # M > N/4
        ],
    )
    def test_edge_cases(self, num_qubits, marked, iterations, depolarize):
        for seed in range(20):
            assert_matches_dense(num_qubits, marked, iterations, depolarize, seed, 33)

    def test_draws_on_cdf_boundaries(self):
        """A draw equal to a cumulative sum selects the next state.

        With 0 iterations on 16 states every probability is exactly
        1/16, so the dense rule ``searchsorted(cumsum, u, "right")``
        maps the draw ``j/16`` to state ``j``.
        """

        class FixedDraws:
            def __init__(self, values):
                self.values = np.asarray(values, dtype=float)

            def random(self, size=None):
                return self.values if size is not None else float(self.values[0])

        run = PhaseOracleGrover(4, [0, 5, 6, 15]).run(0)
        draws = np.arange(16) / 16
        cdf = np.cumsum(run.probabilities())
        assert np.array_equal(np.searchsorted(cdf, draws, side="right"), np.arange(16))
        assert run.measure(16, FixedDraws(draws)) == {j: 1 for j in range(16)}
        for j in range(16):
            assert run.measure_once(FixedDraws([j / 16])) == j

    def test_zero_unmarked_amplitude_is_exact(self):
        run = PhaseOracleGrover(2, [1]).run(1)
        assert run.unmarked_amplitude == 0.0
        assert run.success_probability == 1.0
        rng = np.random.default_rng(7)
        assert run.measure(200, rng) == {1: 200}


class TestTwoScalarRun:
    def test_run_holds_no_dense_vector(self):
        """A 26-qubit run and its measurements allocate no 2^26 array."""
        engine = PhaseOracleGrover(26, np.array([12345, 1 << 25], dtype=np.int64))
        tracemalloc.start()
        try:
            run = engine.run()
            outcomes = run.measure(100, np.random.default_rng(0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert run.iterations == engine.optimal_iterations()
        assert run.success_probability == pytest.approx(
            engine.theoretical_success(run.iterations), abs=1e-9
        )
        assert set(outcomes) <= engine.marked
