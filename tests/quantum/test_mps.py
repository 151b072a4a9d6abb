"""Unit tests for the MPS simulator."""

import numpy as np
import pytest

from repro.quantum import QuantumCircuit, simulate
from repro.quantum.mps import MatrixProductState, simulate_mps


def _dense_probabilities(circuit, initial=0):
    return simulate(circuit, initial=initial).probabilities()


def _mps_probabilities(circuit, initial=0, max_bond=None):
    mps = simulate_mps(circuit, max_bond=max_bond, initial_bits=initial)
    dim = 1 << circuit.num_qubits
    return np.array([abs(mps.amplitude(b)) ** 2 for b in range(dim)])


class TestBasics:
    def test_initial_state(self):
        mps = MatrixProductState(4)
        assert mps.amplitude(0) == pytest.approx(1.0)
        assert mps.amplitude(5) == pytest.approx(0.0)
        assert mps.norm() == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            MatrixProductState(0)
        with pytest.raises(ValueError):
            MatrixProductState(3, max_bond=0)
        with pytest.raises(ValueError):
            MatrixProductState(2).amplitude(4)

    def test_initial_bits(self):
        qc = QuantumCircuit(3)
        mps = simulate_mps(qc, initial_bits=0b101)
        assert abs(mps.amplitude(0b101)) == pytest.approx(1.0)


class TestGateApplication:
    def test_single_qubit_gates(self):
        qc = QuantumCircuit(3)
        qc.h(0)
        qc.x(1)
        qc.z(0)
        assert np.allclose(
            _mps_probabilities(qc), _dense_probabilities(qc), atol=1e-10
        )

    def test_bell_state(self):
        qc = QuantumCircuit(2)
        qc.h(0)
        qc.cx(0, 1)
        probs = _mps_probabilities(qc)
        assert probs[0] == pytest.approx(0.5)
        assert probs[3] == pytest.approx(0.5)

    def test_nonadjacent_cnot(self):
        qc = QuantumCircuit(5)
        qc.h(0)
        qc.cx(0, 4)  # far apart: exercises the swap network
        assert np.allclose(
            _mps_probabilities(qc), _dense_probabilities(qc), atol=1e-10
        )

    def test_toffoli(self):
        qc = QuantumCircuit(3)
        qc.x(0)
        qc.x(2)
        qc.ccx(0, 2, 1)
        probs = _mps_probabilities(qc)
        assert probs[0b111] == pytest.approx(1.0)

    def test_multi_controlled_x_scattered(self):
        qc = QuantumCircuit(6)
        for q in (0, 2, 5):
            qc.x(q)
        qc.mcx([0, 2, 5], 3)
        probs = _mps_probabilities(qc)
        assert probs[0b101101] == pytest.approx(1.0)

    def test_control_on_zero(self):
        qc = QuantumCircuit(3)
        qc.mcx([1], 2, control_values=[0])
        probs = _mps_probabilities(qc)
        assert probs[0b100] == pytest.approx(1.0)

    def test_mcz_phase(self):
        qc = QuantumCircuit(3)
        for q in range(3):
            qc.h(q)
        qc.mcz([0, 1], 2)
        mps = simulate_mps(qc)
        sv = simulate(qc)
        for b in range(8):
            assert mps.amplitude(b) == pytest.approx(sv.data[b], abs=1e-10)


class TestAgreementWithDense:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_random_circuits(self, seed):
        rng = np.random.default_rng(seed)
        n = 6
        qc = QuantumCircuit(n)
        for _ in range(25):
            kind = rng.integers(0, 4)
            if kind == 0:
                qc.h(int(rng.integers(n)))
            elif kind == 1:
                qc.x(int(rng.integers(n)))
            elif kind == 2:
                a, b = rng.choice(n, size=2, replace=False)
                qc.cx(int(a), int(b))
            else:
                a, b, c = rng.choice(n, size=3, replace=False)
                qc.ccx(int(a), int(b), int(c))
        mps = simulate_mps(qc)
        sv = simulate(qc)
        for b in range(1 << n):
            assert mps.amplitude(b) == pytest.approx(sv.data[b], abs=1e-9)

    def test_norm_preserved(self):
        qc = QuantumCircuit(5)
        for q in range(5):
            qc.h(q)
        qc.mcx([0, 1, 2, 3], 4)
        mps = simulate_mps(qc)
        assert mps.norm() == pytest.approx(1.0)
        assert mps.truncation_error == pytest.approx(0.0)


class TestSvdFallback:
    def test_gesdd_failure_retried_with_gesvd(self, monkeypatch):
        """A split whose default SVD fails yields the same state via gesvd."""
        qc = QuantumCircuit(5)
        for q in range(5):
            qc.h(q)
        qc.ccx(0, 3, 1)
        qc.cx(4, 0)
        qc.mcx([0, 1, 2], 4)
        expected = simulate_mps(qc)

        failures = []

        def gesdd_fails(*args, **kwargs):
            failures.append(args[0].shape)
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", gesdd_fails)
        forced = simulate_mps(qc)
        assert failures
        assert forced.bond_dimensions == expected.bond_dimensions
        for b in range(1 << 5):
            assert forced.amplitude(b) == pytest.approx(expected.amplitude(b), abs=1e-12)


class TestMarginals:
    def test_marginal_matches_dense(self):
        qc = QuantumCircuit(4)
        qc.h(0)
        qc.cx(0, 2)
        qc.h(3)
        mps = simulate_mps(qc)
        sv = simulate(qc)
        ours = mps.marginal_probabilities([0, 2])
        theirs = sv.marginal_probabilities([0, 2])
        for key in set(ours) | set(theirs):
            assert ours.get(key, 0.0) == pytest.approx(theirs.get(key, 0.0), abs=1e-10)


class TestTruncation:
    def test_exact_for_product_states(self):
        qc = QuantumCircuit(6)
        for q in range(6):
            qc.h(q)
        mps = simulate_mps(qc, max_bond=1)  # product state: chi = 1 exact
        assert mps.truncation_error == pytest.approx(0.0)

    def test_truncation_error_recorded(self):
        # A 4-qubit GHZ-like cascade needs chi = 2; capping at 1 truncates.
        qc = QuantumCircuit(3)
        qc.h(0)
        qc.cx(0, 1)
        qc.cx(1, 2)
        mps = simulate_mps(qc, max_bond=1)
        assert mps.truncation_error > 0.0

    def test_bond_dimension_reported(self):
        qc = QuantumCircuit(3)
        qc.h(0)
        qc.cx(0, 1)
        mps = simulate_mps(qc)
        assert mps.max_bond_reached >= 2


class TestFullOracleValidation:
    """The MPS run of the complete qTKP circuit — every ancilla
    simulated — must agree with the phase-oracle reduction."""

    def test_full_qtkp_oracle_n3(self):
        from repro.core.oracle import KCplexOracle
        from repro.graphs import Graph
        from repro.grover import PhaseOracleGrover, grover_circuit

        g = Graph(3, [(0, 1), (1, 2)])
        oracle = KCplexOracle(g.complement(), 2, 2)
        engine = PhaseOracleGrover(3, oracle.predicate)
        iterations = max(engine.optimal_iterations(), 1)

        circuit = grover_circuit(3, oracle.phase_oracle_circuit(), iterations)
        # Oracle qubit must start in H|1> for the phase-kickback trick.
        full = QuantumCircuit(circuit.num_qubits)
        oracle_qubit = oracle.num_qubits  # last qubit of the phase oracle
        full.x(oracle_qubit)
        full.h(oracle_qubit)
        full.extend(circuit)

        mps = simulate_mps(full)
        marginal = mps.marginal_probabilities([0, 1, 2])
        reduced = engine.run(iterations)
        expected = reduced.amplitudes ** 2
        for mask in range(8):
            assert marginal.get(mask, 0.0) == pytest.approx(
                float(expected[mask]), abs=1e-8
            )
        # The entanglement stays within the 2^n bound the MPS method
        # relies on.
        assert mps.max_bond_reached <= 8


class TestNormGuard:
    """Truncation accounting and the typed norm-drift error."""

    def _ghz_cascade(self, n=4):
        qc = QuantumCircuit(n)
        qc.h(0)
        for i in range(n - 1):
            qc.cx(i, i + 1)
        return qc

    def test_discarded_weight_matches_truncation_error(self):
        mps = simulate_mps(self._ghz_cascade(), max_bond=1, norm_tolerance=None)
        assert mps.discarded_weight == mps.truncation_error
        assert mps.discarded_weight > 0.0

    def test_exact_simulation_has_no_discarded_weight(self):
        mps = simulate_mps(self._ghz_cascade())
        assert mps.discarded_weight == pytest.approx(0.0)
        assert mps.check_norm() == pytest.approx(1.0)

    def test_tiny_bond_raises_typed_error(self):
        from repro.quantum import MPSNormError

        mps = simulate_mps(self._ghz_cascade(), max_bond=1, norm_tolerance=None)
        mps.norm_tolerance = 1e-6
        with pytest.raises(MPSNormError) as excinfo:
            mps.marginal_probabilities([0, 1])
        err = excinfo.value
        assert err.norm < 1.0
        assert err.truncation_error > 0.0
        assert "max_bond" in str(err)

    def test_simulate_mps_guard_fires_on_first_query(self):
        from repro.quantum import MPSNormError

        mps = simulate_mps(self._ghz_cascade(), max_bond=1)
        with pytest.raises(MPSNormError):
            mps.marginal_probabilities([0])

    def test_opt_out_returns_unnormalized(self):
        mps = simulate_mps(self._ghz_cascade(), max_bond=1, norm_tolerance=None)
        marginal = mps.marginal_probabilities([0, 1, 2, 3])
        assert sum(marginal.values()) < 1.0 - 1e-6

    def test_guard_does_not_fire_within_tolerance(self):
        qc = QuantumCircuit(3)
        qc.h(0)
        qc.cx(0, 1)
        mps = simulate_mps(qc, max_bond=4)  # exact: chi never exceeds 2
        marginal = mps.marginal_probabilities([0, 1])
        assert sum(marginal.values()) == pytest.approx(1.0)

    def test_norm_tolerance_validation(self):
        with pytest.raises(ValueError):
            MatrixProductState(2, norm_tolerance=0.0)

    def test_injector_forced_truncation_composes(self):
        from repro.quantum import MPSNormError
        from repro.resilience import GateFaultInjector, GateFaultPlan

        injector = GateFaultInjector(GateFaultPlan(truncate_bond=1))
        mps = simulate_mps(
            self._ghz_cascade(), max_bond=injector.mps_bond_cap(None)
        )
        with pytest.raises(MPSNormError):
            mps.marginal_probabilities([0])
        assert ("truncate" in [name for _, name in injector.fault_log])
