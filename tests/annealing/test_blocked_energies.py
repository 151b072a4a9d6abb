"""``CSRQuadratic.energies`` prices rows in blocks, gathering 0/1 rows in int8.

``one_shot_energies`` below is the formula it replaced, which gathered
every row of the batch at once in float64.  The blocked evaluation must
return the same bytes as that formula and as per-row
``BinaryQuadraticModel.energy``, on the qaMKP QUBOs (non-dyadic at
R = 1.1) and on random float models, for every batch size around the
block boundary, for int8, bool, int64 and float64 rows, and for rows
with values outside {0, 1}, which keep their polynomial value.
"""

from functools import lru_cache

import numpy as np
import pytest

from repro.annealing import BinaryQuadraticModel
from repro.core import build_mkp_qubo
from repro.datasets.paper_instances import ANNEALING_INSTANCES
from repro.perf import anneal
from repro.perf.anneal import ENERGY_BLOCK


def one_shot_energies(csr, states, offset):
    """The whole-batch float64 evaluation the blocked one replaced."""
    states = np.asarray(states, dtype=np.float64)
    out = (states * csr.h).sum(axis=1) + offset
    if csr.pair_vals.size:
        out += np.ascontiguousarray(
            states[:, csr.pair_rows] * states[:, csr.pair_cols] * csr.pair_vals
        ).sum(axis=1)
    return out


def _random_model(seed: int, n: int, density: float) -> BinaryQuadraticModel:
    rng = np.random.default_rng(seed)
    bqm = BinaryQuadraticModel(offset=float(rng.normal() * 10))
    for v in range(n):
        bqm.add_linear(v, float(rng.normal() * 3))
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < density:
                bqm.add_quadratic(u, v, float(rng.normal() * 3))
    return bqm


MODELS = {
    "D_20_100-R1.1": lambda: build_mkp_qubo(
        ANNEALING_INSTANCES["D_20_100"].build(), 3, penalty=1.1
    ).bqm,
    "D_30_300-R1.1": lambda: build_mkp_qubo(
        ANNEALING_INSTANCES["D_30_300"].build(), 3, penalty=1.1
    ).bqm,
    "D_30_300-R2.0": lambda: build_mkp_qubo(
        ANNEALING_INSTANCES["D_30_300"].build(), 3, penalty=2.0
    ).bqm,
    "float-dense": lambda: _random_model(1, 30, 0.6),
    "float-sparse": lambda: _random_model(2, 50, 0.05),
    "no-pairs": lambda: _random_model(3, 12, 0.0),
}

SIZES = [0, 1, ENERGY_BLOCK - 1, ENERGY_BLOCK, ENERGY_BLOCK + 1, 1000]
DTYPES = [np.int8, np.bool_, np.int64, np.float64]


@lru_cache(maxsize=None)
def model(name: str) -> BinaryQuadraticModel:
    return MODELS[name]()


def _rows(n: int, size: int, values, seed: int) -> np.ndarray:
    return np.random.default_rng(seed).choice(values, size=(size, n))


def _per_row(bqm: BinaryQuadraticModel, states: np.ndarray) -> np.ndarray:
    order = bqm.variables
    return np.array(
        [bqm.energy(dict(zip(order, row.tolist()))) for row in states],
        dtype=np.float64,
    )


def _assert_same(got: np.ndarray, ref: np.ndarray) -> None:
    assert got.dtype == ref.dtype == np.float64
    assert got.shape == ref.shape
    assert got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("dtype", DTYPES, ids=lambda d: np.dtype(d).name)
@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("name", sorted(MODELS))
def test_binary_rows_match_one_shot_and_per_row(name, size, dtype):
    bqm = model(name)
    csr = bqm.to_csr()
    states = _rows(csr.num_variables, size, [0, 1], seed=size).astype(dtype)
    got = csr.energies(states, bqm.offset)
    _assert_same(got, one_shot_energies(csr, states, bqm.offset))
    _assert_same(bqm.energies(states), got)
    sample = states[:: max(1, size // 50)]
    _assert_same(_per_row(bqm, sample), got[:: max(1, size // 50)])


@pytest.mark.parametrize("dtype", [np.int8, np.int64, np.float64], ids=lambda d: np.dtype(d).name)
@pytest.mark.parametrize("size", [1, ENERGY_BLOCK + 1, 1000])
@pytest.mark.parametrize("name", sorted(MODELS))
def test_non_binary_rows_keep_their_polynomial_value(name, size, dtype):
    bqm = model(name)
    csr = bqm.to_csr()
    states = _rows(csr.num_variables, size, [-1, 0, 1, 2], seed=7).astype(dtype)
    got = csr.energies(states, bqm.offset)
    _assert_same(got, one_shot_energies(csr, states, bqm.offset))
    _assert_same(_per_row(bqm, states[:40]), got[:40])


def test_one_stray_value_takes_the_float_path_for_the_batch():
    bqm = model("D_20_100-R1.1")
    csr = bqm.to_csr()
    states = _rows(csr.num_variables, 200, [0, 1], seed=3).astype(np.int8)
    states[150, 7] = 2
    _assert_same(
        csr.energies(states, bqm.offset), one_shot_energies(csr, states, bqm.offset)
    )


@pytest.mark.parametrize("block", [1, 16, 64, 256])
@pytest.mark.parametrize("dtype", [np.int8, np.float64], ids=lambda d: np.dtype(d).name)
def test_any_block_size_gives_the_same_bits(monkeypatch, block, dtype):
    bqm = model("D_30_300-R1.1")
    csr = bqm.to_csr()
    states = _rows(csr.num_variables, 300, [0, 1], seed=5).astype(dtype)
    ref = one_shot_energies(csr, states, bqm.offset)
    monkeypatch.setattr(anneal, "ENERGY_BLOCK", block)
    _assert_same(csr.energies(states, bqm.offset), ref)


def test_strided_rows():
    bqm = model("float-dense")
    csr = bqm.to_csr()
    wide = _rows(2 * csr.num_variables, 90, [0, 1], seed=9).astype(np.int8)
    states = wide[::2, ::2]
    assert not states.flags.c_contiguous
    _assert_same(
        csr.energies(states, bqm.offset), one_shot_energies(csr, states, bqm.offset)
    )
