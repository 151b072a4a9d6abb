"""Byte-identity of the compiled kernel tier against the NumPy reference.

The contract that makes ``--kernel`` safe to flip in production: both
backends — the NumPy reference and the C extension — produce the *same
bytes* for the three hot loops (level-by-level k-plex enumeration, CSR
Metropolis sweep, batched tabu descent), for any input, any chunking,
and any replica batch shape.  The enumeration is further held to the
``2^n`` mask sweep it replaced (``sweep_reference``).  Hypothesis
draws half-integer coefficients, for which every float64 field/energy
is exact regardless of summation order, so "byte-identical" is
deterministic here, not probabilistic.

A backend that cannot construct in this environment (no C compiler) is
skip-marked, never failed: the tier is an accelerator, not a
dependency.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.annealing import BinaryQuadraticModel, SimulatedAnnealingSampler
from repro.graphs import Graph, gnm_random_graph
from repro.perf import MarkedSetCache, kernels
from repro.perf.anneal import SweepPlan, build_sweep_plan, sa_sweep, tabu_descend
from repro.perf.bitparallel import kplex_masks
from repro.perf.kernels import (
    KERNEL_NAMES,
    KernelUnavailable,
    NumpyKernels,
    available_backends,
    pack_sweep_plan,
    resolve,
)

from .sweep_reference import sweep_kplex_masks, sweep_table

AVAILABLE = available_backends()

#: Every known tier, skip-marked when the environment can't build it.
ALL_BACKENDS = [
    pytest.param(
        name,
        marks=()
        if name in AVAILABLE
        else pytest.mark.skip(reason=f"kernel backend {name!r} unavailable"),
    )
    for name in KERNEL_NAMES
]
#: The compiled tiers only (equivalence against the reference).
COMPILED = [p for p in ALL_BACKENDS if p.values[0] != "numpy"]


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------


@st.composite
def graphs(draw, max_n=9):
    n = draw(st.integers(min_value=2, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return Graph(n, edges)


@st.composite
def marked_instances(draw, max_n=16):
    """An empty, complete or random graph on 1..max_n vertices, with k
    anywhere in 1..n + 1."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    shape = draw(st.sampled_from(["empty", "complete", "random"]))
    if shape == "empty":
        edges = []
    elif shape == "complete":
        edges = pairs
    else:
        density = draw(st.sampled_from([0.2, 0.5, 0.8]))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        edges = [p for p in pairs if rng.random() < density]
    return Graph(n, edges), draw(st.integers(min_value=1, max_value=n + 1))


@st.composite
def bqms(draw, max_n=14):
    n = draw(st.integers(min_value=2, max_value=max_n))
    bqm = BinaryQuadraticModel()
    for v in range(n):
        bqm.add_linear(v, draw(st.integers(-6, 6)) / 2)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    for u, v in draw(st.lists(st.sampled_from(pairs), unique=True)):
        bqm.add_quadratic(u, v, draw(st.integers(-6, 6)) / 2)
    return bqm


def _sweep_inputs(bqm, reads, seed):
    csr = bqm.to_csr()
    rng = np.random.default_rng(seed)
    n = csr.h.size
    spins = np.ascontiguousarray(rng.choice([-1.0, 1.0], size=(n, reads)))
    uniforms = np.ascontiguousarray(rng.random((n, reads)))
    return csr, spins, uniforms


# ----------------------------------------------------------------------
# Enumeration kernel
# ----------------------------------------------------------------------


@pytest.mark.parametrize("backend", COMPILED)
@settings(max_examples=40, deadline=None)
@given(graph=graphs(), k=st.integers(1, 3))
def test_kplex_masks_byte_identical(backend, graph, k):
    ref_masks, ref_sizes = kplex_masks(graph, k, kernel="numpy")
    got_masks, got_sizes = kplex_masks(graph, k, kernel=backend)
    assert got_masks.tobytes() == ref_masks.tobytes()
    assert got_sizes.tobytes() == ref_sizes.tobytes()


def _same_table(a, b) -> bool:
    return (
        a.num_vertices == b.num_vertices
        and a._by_size.dtype == b._by_size.dtype
        and a._by_size.tobytes() == b._by_size.tobytes()
        and a._offsets.dtype == b._offsets.dtype
        and a._offsets.tobytes() == b._offsets.tobytes()
    )


@pytest.mark.parametrize("backend", ALL_BACKENDS)
@settings(max_examples=60, deadline=None)
@given(instance=marked_instances())
def test_level_sweep_matches_the_mask_sweep(backend, instance):
    graph, k = instance
    ref_masks, ref_sizes = sweep_kplex_masks(graph, k)
    masks, sizes = kplex_masks(graph, k, kernel=backend)
    assert masks.dtype == ref_masks.dtype and sizes.dtype == ref_sizes.dtype
    assert masks.tobytes() == ref_masks.tobytes()
    assert sizes.tobytes() == ref_sizes.tobytes()
    table = MarkedSetCache(kernel=backend).table(graph, k)
    assert _same_table(table, sweep_table(graph, k))


@pytest.mark.parametrize("backend", COMPILED)
@pytest.mark.parametrize("n", range(20, 27))
def test_tiers_agree_on_wide_sparse_graphs(backend, n):
    graph = gnm_random_graph(n, 6 * n, seed=3)
    ref = MarkedSetCache(kernel="numpy").table(graph, 2)
    got = MarkedSetCache(kernel=backend).table(graph, 2)
    assert _same_table(got, ref)


# ----------------------------------------------------------------------
# SA sweep kernel
# ----------------------------------------------------------------------


@pytest.mark.parametrize("backend", COMPILED)
@settings(max_examples=30, deadline=None)
@given(bqm=bqms(), reads=st.integers(1, 7), seed=st.integers(0, 99))
def test_sa_sweep_byte_identical(backend, bqm, reads, seed):
    csr, spins, uniforms = _sweep_inputs(bqm, reads, seed)
    plan = build_sweep_plan(
        csr.h, csr.indptr, csr.indices, csr.data, csr.row_sums, 5
    )
    ref = spins.copy()
    ref_flips = sa_sweep(plan, ref, 0.7, uniforms, kernel="numpy")
    got = spins.copy()
    got_flips = sa_sweep(plan, got, 0.7, uniforms, kernel=backend)
    assert got_flips == ref_flips
    assert got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("backend", COMPILED)
def test_sa_sweep_chunk_size_invariant(backend):
    rng = np.random.default_rng(3)
    bqm = BinaryQuadraticModel()
    for v in range(17):
        bqm.add_linear(v, float(rng.integers(-6, 7)) / 2)
    for _ in range(40):
        u, v = rng.choice(17, size=2, replace=False)
        bqm.add_quadratic(int(u), int(v), float(rng.integers(-6, 7)) / 2)
    csr, spins0, uniforms = _sweep_inputs(bqm, 5, 7)
    reference = None
    for chunk in (1, 3, 8, 17, 64):
        plan = build_sweep_plan(
            csr.h, csr.indptr, csr.indices, csr.data, csr.row_sums, chunk
        )
        spins = spins0.copy()
        flips = sa_sweep(plan, spins, 0.9, uniforms, kernel=backend)
        outcome = (flips, spins.tobytes())
        if reference is None:
            reference = outcome
        else:
            assert outcome == reference


@pytest.mark.parametrize("backend", COMPILED)
def test_packed_and_per_chunk_dispatch_agree(backend):
    # SweepPlan carries a memoized whole-plan pack (one native call per
    # sweep); a plain-list plan takes the per-chunk path.  Same bytes.
    rng = np.random.default_rng(5)
    bqm = BinaryQuadraticModel()
    for v in range(13):
        bqm.add_linear(v, float(rng.integers(-6, 7)) / 2)
    for _ in range(30):
        u, v = rng.choice(13, size=2, replace=False)
        bqm.add_quadratic(int(u), int(v), float(rng.integers(-6, 7)) / 2)
    csr, spins0, uniforms = _sweep_inputs(bqm, 4, 9)
    plan = build_sweep_plan(
        csr.h, csr.indptr, csr.indices, csr.data, csr.row_sums, 4
    )
    assert isinstance(plan, SweepPlan)
    packed = spins0.copy()
    packed_flips = sa_sweep(plan, packed, 1.1, uniforms, kernel=backend)
    unpacked = spins0.copy()
    unpacked_flips = sa_sweep(list(plan), unpacked, 1.1, uniforms, kernel=backend)
    assert packed_flips == unpacked_flips
    assert packed.tobytes() == unpacked.tobytes()


def test_pack_is_memoized_on_the_plan():
    rng = np.random.default_rng(6)
    bqm = BinaryQuadraticModel()
    for v in range(9):
        bqm.add_linear(v, float(rng.integers(-6, 7)) / 2)
    for _ in range(12):
        u, v = rng.choice(9, size=2, replace=False)
        bqm.add_quadratic(int(u), int(v), float(rng.integers(-6, 7)) / 2)
    csr = bqm.to_csr()
    plan = build_sweep_plan(
        csr.h, csr.indptr, csr.indices, csr.data, csr.row_sums, 4
    )
    pack = pack_sweep_plan(plan)
    assert pack is not None
    assert pack_sweep_plan(plan) is pack  # cached on the SweepPlan
    assert pack_sweep_plan(list(plan)) is not pack  # plain list: rebuilt


# ----------------------------------------------------------------------
# Tabu kernel
# ----------------------------------------------------------------------


@pytest.mark.parametrize("backend", COMPILED)
@settings(max_examples=25, deadline=None)
@given(bqm=bqms(max_n=11), replicas=st.integers(1, 4), seed=st.integers(0, 99))
def test_tabu_descend_byte_identical(backend, bqm, replicas, seed):
    csr = bqm.to_csr()
    n = csr.h.size
    rng = np.random.default_rng(seed)
    x0 = rng.integers(0, 2, size=(replicas, n)).astype(np.int8)
    e0 = np.asarray(
        bqm.energies(x0.astype(float), list(range(n))), dtype=np.float64
    )
    # x and energies advance in place: every call needs fresh copies.
    ref_flips: list = []
    ref_x, ref_e = tabu_descend(
        csr.h, csr.indptr, csr.indices, csr.data, x0.copy(), e0.copy(),
        25, 5, record_flips=ref_flips, kernel="numpy",
    )
    got_flips: list = []
    got_x, got_e = tabu_descend(
        csr.h, csr.indptr, csr.indices, csr.data, x0.copy(), e0.copy(),
        25, 5, record_flips=got_flips, kernel=backend,
    )
    assert np.array_equal(np.asarray(got_flips), np.asarray(ref_flips))
    assert got_x.tobytes() == ref_x.tobytes()
    assert got_e.tobytes() == ref_e.tobytes()


# ----------------------------------------------------------------------
# Sampleset-level equivalence and selection plumbing
# ----------------------------------------------------------------------


@pytest.mark.parametrize("backend", COMPILED)
def test_sa_sampleset_identical_across_backends(backend):
    rng = np.random.default_rng(8)
    bqm = BinaryQuadraticModel()
    for v in range(12):
        bqm.add_linear(v, float(rng.integers(-6, 7)) / 2)
    for _ in range(28):
        u, v = rng.choice(12, size=2, replace=False)
        bqm.add_quadratic(int(u), int(v), float(rng.integers(-6, 7)) / 2)
    sampler = SimulatedAnnealingSampler()

    def flatten(ss):
        return [
            (dict(s.assignment), s.energy, s.num_occurrences) for s in ss
        ]

    ref = sampler.sample(bqm, num_reads=9, num_sweeps=6, seed=42, kernel="numpy")
    got = sampler.sample(bqm, num_reads=9, num_sweeps=6, seed=42, kernel=backend)
    assert flatten(got) == flatten(ref)


def test_resolve_env_and_fallback(monkeypatch):
    monkeypatch.setenv("REPRO_KERNEL", "numpy")
    assert resolve(None).name == "numpy"
    assert isinstance(resolve("numpy"), NumpyKernels)
    # Explicit names win over the environment.
    monkeypatch.setenv("REPRO_KERNEL", "auto")
    for name in AVAILABLE:
        assert resolve(name).name == name
    with pytest.raises(ValueError):
        resolve("vectorized-fortran")


def test_unavailable_backend_falls_back_to_numpy(monkeypatch):
    def no_compiler():
        raise KernelUnavailable("no C compiler on PATH")

    # Force the compiled tier unavailable on every host, with a fresh
    # probe (the registry remembers construction results per process).
    monkeypatch.setitem(kernels._FACTORIES, "cext", no_compiler)
    monkeypatch.setattr(kernels, "_instances", {})
    assert resolve("cext").name == "numpy"
    assert resolve("auto").name == "numpy"
    assert available_backends() == ["numpy"]
