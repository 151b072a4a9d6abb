"""Seed-equivalence and ledger tests for the sparse annealing engine.

The engine rewrote the SA sampler and tabu search on the CSR kernels in
``repro.perf.anneal``; these tests pin the contract that made that safe:

* the new SA sampler is **bit-identical** to the historical dense
  sampler for fixed seeds (same RNG stream, same acceptance formula,
  same flip order);
* ``batched_tabu`` with one replica reproduces the historical
  single-trajectory ``tabu_search`` **flip-for-flip**;
* traced runs reconcile in the run ledger, with sweep/flip totals
  matching what ``SampleSet.info`` / ``BatchedTabuResult.info`` report.

The reference implementations below are faithful transcriptions of the
seed samplers (dense matrices, per-variable field recomputation).  The
hypothesis models draw half-integer coefficients, for which every
energy/field value is exact in float64 regardless of summation order —
so "bit-identical" is a deterministic property, not a probabilistic one.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.annealing import (
    BinaryQuadraticModel,
    SimulatedAnnealingSampler,
    batched_tabu,
    tabu_search,
)
from repro.obs import RunLedger, Tracer

# ----------------------------------------------------------------------
# Seed reference implementations
# ----------------------------------------------------------------------


def seed_sa_states(bqm, num_reads, num_sweeps, seed, beta_range=None):
    """The historical dense SA sweep loop; returns the final state matrix."""
    rng = np.random.default_rng(seed)
    h, j, _offset, order = bqm.to_numpy()
    n = len(order)
    jsym = j + j.T
    states = rng.integers(0, 2, size=(num_reads, n)).astype(float)
    if beta_range is not None:
        hot, cold = beta_range
    else:
        max_delta = max(float(np.max(np.abs(h) + np.sum(np.abs(jsym), axis=0))), 1e-9)
        coeffs = np.concatenate([np.abs(h[h != 0]), np.abs(jsym[jsym != 0])])
        min_coeff = float(coeffs.min()) if coeffs.size else 1.0
        hot = np.log(2.0) / max_delta
        cold = np.log(100.0) / max(min_coeff, 1e-9)
    if num_sweeps == 1:
        betas = np.array([cold])
    else:
        betas = np.geomspace(max(hot, 1e-12), max(cold, hot * 1.0001), num_sweeps)
    for beta in betas:
        for i in range(n):
            field = h[i] + states @ jsym[:, i]
            delta = (1.0 - 2.0 * states[:, i]) * field
            accept = (delta <= 0) | (
                rng.random(num_reads) < np.exp(-beta * np.clip(delta, 0, 700))
            )
            states[accept, i] = 1.0 - states[accept, i]
    return states, order


def seed_tabu_flips(bqm, initial, iterations, tenure, seed):
    """The historical single-trajectory tabu loop, recording every flip."""
    rng = np.random.default_rng(seed)
    h, j, _offset, order = bqm.to_numpy()
    n = len(order)
    if tenure is None:
        tenure = min(20, n // 4 + 1)
    jsym = j + j.T
    if initial is not None:
        x = np.array([initial[v] for v in order], dtype=float)
    else:
        x = rng.integers(0, 2, size=n).astype(float)
    field = h + jsym @ x
    delta = (1.0 - 2.0 * x) * field
    energy = float(bqm.energies(x[None, :], order)[0])
    best_energy = energy
    best_x = x.copy()
    tabu_until = np.zeros(n, dtype=np.int64)
    flips = []
    for step in range(1, iterations + 1):
        allowed = (tabu_until < step) | (energy + delta < best_energy - 1e-12)
        if not np.any(allowed):
            allowed[:] = True
        scores = np.where(allowed, delta, np.inf)
        i = int(np.argmin(scores))
        flips.append(i)
        sign = 1.0 - 2.0 * x[i]
        x[i] += sign
        energy += delta[i]
        delta[i] = -delta[i]
        shift = (1.0 - 2.0 * x) * jsym[i] * sign
        shift[i] = 0.0
        delta += shift
        tabu_until[i] = step + tenure
        if energy < best_energy - 1e-12:
            best_energy = energy
            best_x = x.copy()
    assignment = {v: int(best_x[c]) for c, v in enumerate(order)}
    return assignment, float(best_energy), flips


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------

half_int = st.integers(min_value=-6, max_value=6).map(lambda k: k / 2)


@st.composite
def sparse_bqms(draw, min_vars=1, max_vars=12):
    """Random sparse models with half-integer coefficients (exact in f64)."""
    n = draw(st.integers(min_value=min_vars, max_value=max_vars))
    bqm = BinaryQuadraticModel(offset=draw(half_int))
    for i in range(n):
        bqm.add_linear(i, draw(half_int))
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.integers(0, 2)) == 0:
                bqm.add_quadratic(i, j, draw(half_int))
    return bqm


def fingerprint(sampleset):
    return [
        (tuple(sorted(s.assignment.items())), s.energy, s.num_occurrences)
        for s in sampleset.samples
    ]


# ----------------------------------------------------------------------
# SA seed equivalence
# ----------------------------------------------------------------------


class TestSASeedEquivalence:
    @given(sparse_bqms(), st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_states_bit_identical_to_seed(self, bqm, seed):
        ref_states, order = seed_sa_states(bqm, num_reads=5, num_sweeps=7, seed=seed)
        ss = SimulatedAnnealingSampler().sample(
            bqm, num_reads=5, num_sweeps=7, seed=seed
        )
        ref_energies = bqm.energies(ref_states, order)
        ref_assignments = [
            {v: int(ref_states[r, c]) for c, v in enumerate(order)}
            for r in range(ref_states.shape[0])
        ]
        from repro.annealing.sampleset import SampleSet

        ref_ss = SampleSet.from_states(ref_assignments, ref_energies.tolist())
        assert fingerprint(ss) == fingerprint(ref_ss)

    @given(sparse_bqms(min_vars=2), st.integers(0, 2**31 - 1))
    @settings(max_examples=10, deadline=None)
    def test_explicit_beta_range_matches_seed(self, bqm, seed):
        ref_states, order = seed_sa_states(
            bqm, num_reads=3, num_sweeps=4, seed=seed, beta_range=(0.5, 8.0)
        )
        ss = SimulatedAnnealingSampler(beta_range=(0.5, 8.0)).sample(
            bqm, num_reads=3, num_sweeps=4, seed=seed
        )
        ref_energies = sorted(bqm.energies(ref_states, order).tolist())
        assert ss.lowest_energy == ref_energies[0]

    def test_workers_byte_identical(self):
        rng = np.random.default_rng(11)
        bqm = BinaryQuadraticModel()
        for v in range(20):
            bqm.add_linear(v, float(rng.integers(-6, 7)) / 2)
        for _ in range(50):
            u, v = rng.choice(20, size=2, replace=False)
            bqm.add_quadratic(int(u), int(v), float(rng.integers(-6, 7)) / 2)
        solo = SimulatedAnnealingSampler().sample(
            bqm, num_reads=12, num_sweeps=9, seed=5
        )
        sharded = SimulatedAnnealingSampler().sample(
            bqm, num_reads=12, num_sweeps=9, seed=5, workers=3
        )
        assert fingerprint(solo) == fingerprint(sharded)
        assert solo.info["num_flips"] == sharded.info["num_flips"]


# ----------------------------------------------------------------------
# Tabu seed equivalence
# ----------------------------------------------------------------------


class TestTabuSeedEquivalence:
    @given(
        sparse_bqms(min_vars=2),
        st.integers(0, 2**31 - 1),
        st.integers(0, 120),
    )
    @settings(max_examples=25, deadline=None)
    def test_single_replica_flip_for_flip(self, bqm, seed, iterations):
        ref_assignment, ref_energy, ref_flips = seed_tabu_flips(
            bqm, None, iterations, None, seed
        )
        recorded: list = []
        res = batched_tabu(
            bqm, num_restarts=1, iterations=iterations, seed=seed,
            _record_flips=recorded,
        )
        new_flips = [int(step[0]) for step in recorded]
        assert new_flips == ref_flips
        assert res.assignments[0] == ref_assignment
        assert float(res.energies[0]) == ref_energy

    @given(sparse_bqms(min_vars=2), st.integers(0, 2**31 - 1))
    @settings(max_examples=15, deadline=None)
    def test_wrapper_matches_seed_trajectory(self, bqm, seed):
        ref_assignment, ref_energy, _ = seed_tabu_flips(bqm, None, 80, None, seed)
        assignment, energy = tabu_search(bqm, iterations=80, seed=seed)
        assert assignment == ref_assignment
        assert energy == ref_energy

    def test_batch_rows_equal_independent_runs(self):
        # Replicas share no state: a batch from fixed initial states must
        # equal one tabu_search per initial state (seeded starts never
        # consume the RNG).
        rng = np.random.default_rng(3)
        bqm = BinaryQuadraticModel()
        for v in range(10):
            bqm.add_linear(v, float(rng.integers(-6, 7)) / 2)
        for _ in range(20):
            u, v = rng.choice(10, size=2, replace=False)
            bqm.add_quadratic(int(u), int(v), float(rng.integers(-6, 7)) / 2)
        inits = [
            {v: int(rng.integers(0, 2)) for v in bqm.variables} for _ in range(4)
        ]
        res = batched_tabu(
            bqm, num_restarts=4, initial_states=inits, iterations=150
        )
        for init, assignment, energy in zip(inits, res.assignments, res.energies):
            solo_assignment, solo_energy = tabu_search(
                bqm, initial=init, iterations=150
            )
            assert assignment == solo_assignment
            assert float(energy) == solo_energy


# ----------------------------------------------------------------------
# Ledger reconciliation
# ----------------------------------------------------------------------


class TestLedgerReconciliation:
    def _bqm(self):
        rng = np.random.default_rng(9)
        bqm = BinaryQuadraticModel()
        for v in range(12):
            bqm.add_linear(v, float(rng.integers(-6, 7)) / 2)
        for _ in range(25):
            u, v = rng.choice(12, size=2, replace=False)
            bqm.add_quadratic(int(u), int(v), float(rng.integers(-6, 7)) / 2)
        return bqm

    def test_sa_totals_reconcile_with_info(self):
        tracer = Tracer()
        ss = SimulatedAnnealingSampler().sample(
            self._bqm(), num_reads=6, num_sweeps=11, seed=1, tracer=tracer
        )
        ledger = RunLedger.from_tracer(tracer)
        assert ledger.verify() == []
        assert ledger.total("anneal_sweeps") == ss.info["sweeps_per_read"]
        assert ledger.total("anneal_flips") == ss.info["num_flips"]

    def test_sa_sharded_totals_reconcile(self):
        tracer = Tracer()
        ss = SimulatedAnnealingSampler().sample(
            self._bqm(), num_reads=8, num_sweeps=5, seed=2, workers=2, tracer=tracer
        )
        ledger = RunLedger.from_tracer(tracer)
        assert ledger.verify() == []
        assert ledger.total("anneal_sweeps") == 5
        assert ledger.total("anneal_flips") == ss.info["num_flips"]

    def test_tabu_totals_reconcile_with_info(self):
        tracer = Tracer()
        res = batched_tabu(
            self._bqm(), num_restarts=3, iterations=40, seed=4, tracer=tracer
        )
        ledger = RunLedger.from_tracer(tracer)
        assert ledger.verify() == []
        assert ledger.total("anneal_tabu_steps") == res.info["iterations"]
        assert ledger.total("anneal_tabu_flips") == res.info["num_flips"]
        assert res.info["num_flips"] == 3 * 40

    def test_traced_qamkp_sa_solve_reconciles(self):
        from repro.core import qamkp
        from repro.graphs import Graph

        rng = np.random.default_rng(0)
        edges = [
            (u, v) for u in range(10) for v in range(u + 1, 10) if rng.random() < 0.6
        ]
        tracer = Tracer()
        qamkp(Graph(10, edges), 2, solver="sa", runtime_us=500.0, seed=3, tracer=tracer)
        ledger = RunLedger.from_tracer(tracer)
        assert ledger.verify() == []
        assert ledger.total("anneal_sweeps") == 2  # the paper's fixed sweep count

    def test_traced_hybrid_solve_reconciles(self):
        from repro.core import qamkp
        from repro.graphs import Graph

        rng = np.random.default_rng(1)
        edges = [
            (u, v) for u in range(8) for v in range(u + 1, 8) if rng.random() < 0.6
        ]
        tracer = Tracer()
        qamkp(Graph(8, edges), 2, solver="hybrid", seed=3, tracer=tracer)
        ledger = RunLedger.from_tracer(tracer)
        assert ledger.verify() == []
        assert ledger.total("anneal_tabu_steps") > 0


# ----------------------------------------------------------------------
# Engine odds and ends
# ----------------------------------------------------------------------


class TestEngineEdgeCases:
    def test_batched_tabu_empty_model_dicts_independent(self):
        res = batched_tabu(BinaryQuadraticModel(offset=2.0), num_restarts=3)
        res.assignments[0]["ghost"] = 1
        assert res.assignments[1] == {}
        assert res.best_energy == 2.0

    def test_batched_tabu_validation(self):
        bqm = BinaryQuadraticModel({0: 1.0})
        with pytest.raises(ValueError, match="num_restarts"):
            batched_tabu(bqm, num_restarts=0)
        with pytest.raises(ValueError, match="initial_states"):
            batched_tabu(bqm, num_restarts=2, initial_states=np.zeros((1, 1)))

    def test_batched_tabu_energies_match_assignments(self):
        rng = np.random.default_rng(5)
        bqm = BinaryQuadraticModel()
        for v in range(9):
            bqm.add_linear(v, float(rng.normal()))
        for _ in range(15):
            u, v = rng.choice(9, size=2, replace=False)
            bqm.add_quadratic(int(u), int(v), float(rng.normal()))
        res = batched_tabu(bqm, num_restarts=5, iterations=100, seed=6)
        for assignment, energy in zip(res.assignments, res.energies):
            assert bqm.energy(assignment) == pytest.approx(float(energy))
        assert res.best_energy == min(float(e) for e in res.energies)
        assert res.best_assignment == res.assignments[res.best_index]

    def test_sa_flip_count_is_reported(self):
        ss = SimulatedAnnealingSampler().sample(
            BinaryQuadraticModel({0: -5.0, 1: -5.0}), num_reads=4, num_sweeps=3, seed=0
        )
        assert ss.info["num_flips"] >= 0

    def test_steepest_descent_reaches_local_minimum(self):
        from repro.annealing import steepest_descent

        rng = np.random.default_rng(8)
        bqm = BinaryQuadraticModel()
        for v in range(10):
            bqm.add_linear(v, float(rng.normal()))
        for _ in range(18):
            u, v = rng.choice(10, size=2, replace=False)
            bqm.add_quadratic(int(u), int(v), float(rng.normal()))
        start = {v: int(rng.integers(0, 2)) for v in bqm.variables}
        final = steepest_descent(bqm, start)
        base = bqm.energy(final)
        for v in bqm.variables:
            flipped = dict(final)
            flipped[v] = 1 - flipped[v]
            assert bqm.energy(flipped) >= base - 1e-9


# ----------------------------------------------------------------------
# Sweep plan chunking
# ----------------------------------------------------------------------


class TestSweepPlan:
    def test_chunk_size_invariance(self):
        # The chunk size is a pure performance knob: any chunking must
        # leave spins, flip counts, and therefore samplesets untouched.
        from repro.perf.anneal import build_sweep_plan, sa_sweep

        rng = np.random.default_rng(2)
        bqm = BinaryQuadraticModel()
        for v in range(15):
            bqm.add_linear(v, float(rng.integers(-6, 7)) / 2)
        for _ in range(35):
            u, v = rng.choice(15, size=2, replace=False)
            bqm.add_quadratic(int(u), int(v), float(rng.integers(-6, 7)) / 2)
        csr = bqm.to_csr()
        spins0 = rng.choice([-1.0, 1.0], size=(15, 6))
        uniforms = rng.random((15, 6))
        reference = None
        for chunk in (1, 2, 5, 15, 64):
            plan = build_sweep_plan(
                csr.h, csr.indptr, csr.indices, csr.data, csr.row_sums, chunk
            )
            spins = spins0.copy()
            flips = sa_sweep(plan, spins, 0.7, uniforms)
            outcome = (flips, spins.tobytes())
            if reference is None:
                reference = outcome
            else:
                assert outcome == reference

    def test_plan_covers_all_variables_once(self):
        from repro.perf.anneal import build_sweep_plan

        rng = np.random.default_rng(4)
        bqm = BinaryQuadraticModel()
        for v in range(11):
            bqm.add_linear(v, float(rng.integers(-6, 7)) / 2)
        for _ in range(18):
            u, v = rng.choice(11, size=2, replace=False)
            bqm.add_quadratic(int(u), int(v), float(rng.integers(-6, 7)) / 2)
        csr = bqm.to_csr()
        plan = build_sweep_plan(
            csr.h, csr.indptr, csr.indices, csr.data, csr.row_sums, 4
        )
        spans = [(entry[0], entry[1]) for entry in plan]
        assert spans[0][0] == 0 and spans[-1][1] == 11
        assert all(a[1] == b[0] for a, b in zip(spans, spans[1:]))


def reference_sweep_plan(h, indptr, indices, data, row_sums, chunk):
    """The per-variable loop that built sweep plans before the
    vectorised build (less the SciPy chunk matrices it also carried)."""
    n = indptr.size - 1
    chunk = max(1, min(int(chunk), n)) if n else 1
    plan = []
    for start in range(0, n, chunk):
        end = min(start + chunk, n)
        lo, hi = int(indptr[start]), int(indptr[end])
        iptr, icols, ivals = [0], [], []
        for i in range(start, end):
            rlo, rhi = int(indptr[i]), int(indptr[i + 1])
            cols_row = indices[rlo:rhi]
            a = int(np.searchsorted(cols_row, i + 1))
            b = int(np.searchsorted(cols_row, end))
            icols.append(cols_row[a:b] - start)
            ivals.append(data[rlo:rhi][a:b])
            iptr.append(iptr[-1] + (b - a))
        plan.append((
            start, end,
            indptr[start : end + 1] - indptr[start], indices[lo:hi], data[lo:hi],
            np.ascontiguousarray(h[start:end]),
            np.ascontiguousarray(row_sums[start:end]),
            iptr, np.concatenate(icols), np.concatenate(ivals),
        ))
    return plan


@st.composite
def sparse_models(draw):
    n = draw(st.integers(0, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.sampled_from([0.0, 0.1, 0.3, 1.0]))
    bqm = BinaryQuadraticModel()
    for v in range(n):
        bqm.add_linear(v, float(rng.normal()))
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < density:
                bqm.add_quadratic(u, v, float(rng.normal()))
    return bqm


class TestVectorisedSweepPlan:
    @settings(max_examples=80, deadline=None)
    @given(bqm=sparse_models(), chunk=st.sampled_from([1, 2, 3, 5, 16, 64]))
    def test_equals_the_per_variable_loop(self, bqm, chunk):
        from repro.perf.anneal import build_sweep_plan

        csr = bqm.to_csr()
        model = (csr.h, csr.indptr, csr.indices, csr.data, csr.row_sums)
        got = build_sweep_plan(*model, chunk)
        ref = reference_sweep_plan(*model, chunk)
        assert len(got) == len(ref)
        for got_chunk, ref_chunk in zip(got, ref):
            assert len(got_chunk) == len(ref_chunk)
            for a, b in zip(got_chunk, ref_chunk):
                if isinstance(b, np.ndarray):
                    assert a.dtype == b.dtype and a.shape == b.shape
                    assert a.tobytes() == b.tobytes()
                else:
                    assert type(a) is type(b) and a == b

    def test_products_are_built_on_first_numpy_sweep(self):
        pytest.importorskip("scipy.sparse")
        from repro.perf.anneal import sa_sweep

        rng = np.random.default_rng(12)
        bqm = BinaryQuadraticModel()
        for v in range(20):
            bqm.add_linear(v, float(rng.normal()))
        for _ in range(50):
            u, v = rng.choice(20, size=2, replace=False)
            bqm.add_quadratic(int(u), int(v), float(rng.normal()))
        plan = bqm.to_csr().sweep_plan
        assert plan.chunk_products is None and plan.kernel_pack is None
        spins = rng.choice([-1.0, 1.0], size=(20, 3))
        sa_sweep(plan, spins, 0.5, rng.random((20, 3)), kernel="numpy")
        products = plan.chunk_products
        assert len(products) == len(plan)
        assert all(p is not None for p in products)
        sa_sweep(plan, spins, 0.5, rng.random((20, 3)), kernel="numpy")
        assert plan.chunk_products is products
