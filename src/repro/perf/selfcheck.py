"""First-load self-validation for compiled kernel backends.

A compiled tier is only offered after it reproduces the NumPy reference
bit-for-bit on a fixed probe instance covering every kernel.  This
catches miscompiles, ABI mismatches, and toolchain quirks at resolution
time — the registry treats a failed probe exactly like a missing
toolchain (silent fallback to the reference) instead of letting a wrong
kernel corrupt downstream results.

The reference takes the pure-NumPy branch an install without SciPy
takes, so resolving a tier never loads SciPy.  The probe's biases and
couplings are multiples of 0.5 and its spins ±1, so every field sum is
exact and that branch equals the SciPy branch byte for byte.
"""

from __future__ import annotations

import numpy as np

from .kernels import KernelBackend, KernelUnavailable

__all__ = ["validate_backend"]


def _probe_csr():
    """A small deterministic CSR model exercising chunking and scatter."""
    from .anneal import CSRQuadratic

    rng = np.random.default_rng(20260808)
    n = 37  # > 2 sweep chunks at the default chunk size of 16
    h = np.round(rng.normal(size=n) * 4) / 2
    rows, cols, vals = [], [], []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < 0.25:
                rows.append(u)
                cols.append(v)
                vals.append(float(np.round(rng.normal() * 4) / 2) or 0.5)
    return CSRQuadratic.from_pairs(n, h, rows, cols, vals)


def validate_backend(backend: KernelBackend) -> None:
    """Raise :class:`KernelUnavailable` unless ``backend`` matches the
    reference on the probe instance (byte-identical outputs)."""
    from .anneal import _no_csr, _refresh_fields, _sa_sweep_numpy
    from .anneal import _tabu_descend_numpy, build_sweep_plan
    from .bitparallel import _enumerate_levels

    rng = np.random.default_rng(12345)

    # --- enumerate: an 8-vertex adjacency with mixed degrees ---------
    # (not symmetric, so a kernel must find each vertex's in-neighbours)
    adj_masks = tuple(
        int(m) & ~(1 << v) & 0xFF
        for v, m in enumerate(rng.integers(0, 256, size=8))
    )
    for limit in (0, 1, 2):
        ref = _enumerate_levels(adj_masks, limit)
        got = backend.enumerate_levels(adj_masks, limit)
        if not (
            ref[0].dtype == got[0].dtype
            and ref[0].tobytes() == got[0].tobytes()
            and ref[1].tobytes() == got[1].tobytes()
            and ref[2] == got[2]
        ):
            raise KernelUnavailable(
                f"{backend.name}: enumerate_levels self-check mismatch"
            )

    # --- sa_sweep: multi-chunk plan, both scatter branches -----------
    csr = _probe_csr()
    plan = build_sweep_plan(csr.h, csr.indptr, csr.indices, csr.data, csr.row_sums)
    plan.chunk_products = [None] * len(plan)  # the reference's SciPy-free branch
    reads = 24
    spins = np.where(
        rng.integers(0, 2, size=(csr.num_variables, reads)) > 0, 1.0, -1.0
    )
    for beta in (0.05, 2.0):  # hot (broad scatter) and cold (narrow)
        uniforms = rng.random((csr.num_variables, reads))
        ref_spins = spins.copy()
        got_spins = spins.copy()
        ref_flips = _sa_sweep_numpy(plan, ref_spins, beta, uniforms)
        got_flips = backend.sa_sweep(plan, got_spins, beta, uniforms)
        if ref_flips != got_flips or ref_spins.tobytes() != got_spins.tobytes():
            raise KernelUnavailable(
                f"{backend.name}: sa_sweep self-check mismatch"
            )
        spins = ref_spins

    # --- refresh: the whole batch's fields after those sweeps --------
    model = (csr.h, csr.indptr, csr.indices, csr.data, csr.row_sums, spins)
    ref_fields = _refresh_fields(*model, _no_csr)
    got_fields = backend.refresh_fields(*model)
    if ref_fields.tobytes() != got_fields.tobytes():
        raise KernelUnavailable(f"{backend.name}: refresh_fields self-check mismatch")

    # --- tabu: record the flip trail and compare it too --------------
    x = rng.integers(0, 2, size=(5, csr.num_variables)).astype(np.int8)
    energies = csr.energies(x)
    ref_x, got_x = x.copy(), x.copy()
    ref_e, got_e = energies.copy(), energies.copy()
    ref_trail: list = []
    got_trail: list = []
    ref_best = _tabu_descend_numpy(
        csr.h, csr.indptr, csr.indices, csr.data, ref_x, ref_e, 40, 7,
        record_flips=ref_trail, build_csr=_no_csr,
    )
    got_best = backend.tabu_descend(
        csr.h, csr.indptr, csr.indices, csr.data, got_x, got_e, 40, 7,
        record_flips=got_trail,
    )
    ok = (
        np.array_equal(ref_best[0], got_best[0])
        and ref_best[1].tobytes() == got_best[1].tobytes()
        and np.array_equal(ref_x, got_x)
        and ref_e.tobytes() == got_e.tobytes()
        and len(ref_trail) == len(got_trail)
        and all(np.array_equal(a, b) for a, b in zip(ref_trail, got_trail))
    )
    if not ok:
        raise KernelUnavailable(f"{backend.name}: tabu_descend self-check mismatch")
