"""The compiled tiers' first-load self-check (``repro.perf.selfcheck``).

It must refuse a backend that differs from the reference in any single
output, and it must do so without loading SciPy: its reference runs
the pure-NumPy branch, which on the probe is byte-identical to the
SciPy branch the annealing path takes.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.perf.anneal import _csr, _no_csr, _sa_sweep_numpy, _tabu_descend_numpy
from repro.perf.kernels import KernelUnavailable, NumpyKernels
from repro.perf.selfcheck import validate_backend

ROOT = Path(__file__).resolve().parents[2]

#: ``kernel.output`` names of the single outputs the perturbed backends
#: get wrong.
PERTURBED_OUTPUTS = (
    "enumerate_levels.counts",
    "sa_sweep.flips",
    "sa_sweep.spins",
    "tabu_descend.trail",
    "tabu_descend.energies",
)


class ScipyFreeReference(NumpyKernels):
    """The NumPy reference on the branch an install without SciPy takes."""

    name = "scipy-free"

    def tabu_descend(self, *args, record_flips=None):
        return _tabu_descend_numpy(
            *args, record_flips=record_flips, build_csr=_no_csr
        )


class Perturbed(ScipyFreeReference):
    """The reference with one value of one output changed."""

    def __init__(self, output: str) -> None:
        self.name = output
        self.output = output

    def enumerate_levels(self, adj_masks, limit):
        by_size, counts, candidates = super().enumerate_levels(adj_masks, limit)
        if self.output == "enumerate_levels.counts" and limit == 2:
            counts = counts.copy()
            counts[-1] += 1
        return by_size, counts, candidates

    def sa_sweep(self, plan, spins_t, beta, uniforms):
        flips = super().sa_sweep(plan, spins_t, beta, uniforms)
        if beta < 1.0:
            return flips
        if self.output == "sa_sweep.spins":
            spins_t[0, 0] = -spins_t[0, 0]
        return flips + (self.output == "sa_sweep.flips")

    def tabu_descend(self, *args, record_flips=None):
        best_x, best_e = super().tabu_descend(*args, record_flips=record_flips)
        if self.output == "tabu_descend.trail":
            record_flips[-1] = record_flips[-1] ^ 1
        if self.output == "tabu_descend.energies":
            best_e = best_e.copy()
            best_e[0] = np.nextafter(best_e[0], np.inf)
        return best_x, best_e


def verdicts() -> dict[str, object]:
    """The self-check's verdict on the clean and every perturbed backend,
    plus the SciPy modules loaded by then."""
    out: dict[str, object] = {}
    for backend in [ScipyFreeReference()] + [Perturbed(o) for o in PERTURBED_OUTPUTS]:
        try:
            validate_backend(backend)
            out[backend.name] = "accepted"
        except KernelUnavailable as exc:
            out[backend.name] = str(exc)
    out["scipy"] = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
    return out


def test_refuses_any_single_wrong_output_without_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT), str(ROOT / "src"), env.get("PYTHONPATH", "")]
    )
    code = (
        "import json\n"
        "from tests.perf.test_kernel_selfcheck import verdicts\n"
        "print(json.dumps(verdicts()))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out.pop("scipy") == []
    assert out.pop("scipy-free") == "accepted"
    for output in PERTURBED_OUTPUTS:
        kernel = output.split(".")[0]
        assert out[output] == f"{output}: {kernel} self-check mismatch"


class ScipyReference(NumpyKernels):
    """The NumPy reference on the SciPy branch: sparse chunk products in
    the sweep, a sparse field set-up in tabu."""

    name = "scipy"

    def sa_sweep(self, plan, spins_t, beta, uniforms):
        n = plan[-1][1]
        sparse = []
        for start, end, _jc, indptr, indices, data, *rest in plan:
            matrix = _csr(data, indices, indptr, (end - start, n)) if data.size else None
            sparse.append((start, end, matrix, indptr, indices, data, *rest))
        assert any(chunk[2] is not None for chunk in sparse)
        return _sa_sweep_numpy(sparse, spins_t, beta, uniforms)


def test_reference_branches_byte_equal_on_the_probe():
    pytest.importorskip("scipy.sparse")
    validate_backend(ScipyReference())
    assert "scipy.sparse" in sys.modules
