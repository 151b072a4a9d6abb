"""Pluggable compiled-kernel tier for the perf engine's hot loops.

Three inner loops dominate the pipeline's classical runtime — the
level-by-level k-plex mask enumeration
(:func:`repro.perf.bitparallel.kplex_levels`), the CSR Metropolis
sweep, and the batched tabu flip loop (:mod:`repro.perf.anneal`).  Each
has exactly one reference implementation (pure NumPy, byte-identical
to the seed) and one compiled twin behind a common
:class:`KernelBackend` interface:

* ``numpy`` — the reference.  Always available; selecting it (or having
  no C compiler at all) reproduces seed-era results bit-for-bit.
* ``cext`` — a C translation (:mod:`repro.perf.cext`) compiled on
  demand from the packaged ``_kernels.c`` with the system C compiler
  and driven through ``ctypes``; cached as a shared library per source
  digest.

Selection is by name — the ``REPRO_KERNEL`` environment variable, the
CLI's ``--kernel`` flag, or an explicit ``kernel=`` argument — with
``auto`` picking cext when it builds and numpy otherwise.  Requesting
cext where it is unavailable falls back to NumPy *silently*: the
compiled tier is an accelerator, never a correctness requirement.  It
self-validates on first load (a fixed probe instance is run through
both it and the reference; any mismatch disqualifies it for the
process), so a miscompiled library degrades to the reference instead
of corrupting results.
"""

from __future__ import annotations

import os

import numpy as np

__all__ = [
    "KernelBackend",
    "KernelUnavailable",
    "available_backends",
    "pack_sweep_plan",
    "resolve",
]

#: Resolution order for ``auto``.
_AUTO_ORDER = ("cext", "numpy")

#: Recognised backend names (``auto`` resolves to one of these).
KERNEL_NAMES = ("numpy", "cext")


class KernelUnavailable(RuntimeError):
    """Raised by a backend factory when its toolchain is missing/broken."""


class KernelBackend:
    """Interface every kernel tier implements.

    All three entry points take and return exactly what the NumPy
    reference functions do, and must produce byte-identical integer
    decisions (masks, spin signs, chosen flips); float outputs are
    produced by the same operation sequences so they agree bitwise on
    the model classes the equivalence suite pins (the lone caveat is
    the Metropolis ``exp`` — see :mod:`repro.perf.cext`).
    """

    name: str = "?"

    def enumerate_levels(
        self, adj_masks, limit: int
    ) -> tuple[np.ndarray, np.ndarray, int]:
        raise NotImplementedError

    def sa_sweep(
        self, plan: list, spins_t: np.ndarray, beta: float, uniforms: np.ndarray
    ) -> int:
        raise NotImplementedError

    def tabu_descend(
        self,
        h: np.ndarray,
        indptr: np.ndarray,
        indices: np.ndarray,
        data: np.ndarray,
        x: np.ndarray,
        energies: np.ndarray,
        iterations: int,
        tenure: int,
        record_flips: list | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError


class PackedPlan:
    """A sweep plan flattened for single-call native dispatch.

    One contiguous array per plan field (per-chunk slices concatenated,
    with per-chunk base offsets), so a compiled backend walks every
    chunk of a sweep inside one native call instead of paying a
    Python/ctypes round trip per chunk.
    """

    __slots__ = (
        "nchunks", "bounds", "ip_flat", "ip_off", "nz_cols", "nz_vals",
        "nz_off", "h", "rs", "sp_ptr_flat", "sp_ptr_off", "sp_cols",
        "sp_vals", "sp_nz_off", "max_chunk",
    )


def pack_sweep_plan(plan) -> PackedPlan | None:
    """Flatten ``plan`` (see :func:`repro.perf.anneal.build_sweep_plan`)
    into a :class:`PackedPlan`, memoized on the plan when it is a
    :class:`~repro.perf.anneal.SweepPlan`.

    Returns None for plans whose chunks do not tile ``[0, n)``
    contiguously (never produced by ``build_sweep_plan``; a hand-built
    irregular plan keeps the per-chunk path).
    """
    cached = getattr(plan, "kernel_pack", None)
    if cached is not None:
        return cached
    if not plan:
        return None
    if plan[0][0] != 0 or any(
        plan[c][1] != plan[c + 1][0] for c in range(len(plan) - 1)
    ):
        return None
    pack = PackedPlan()
    pack.nchunks = len(plan)
    bounds = [p[0] for p in plan] + [plan[-1][1]]
    pack.bounds = np.asarray(bounds, dtype=np.int64)
    ip_parts, nz_cols, nz_vals = [], [], []
    sp_ptrs, sp_cols, sp_vals = [], [], []
    ip_off, nz_off, sp_ptr_off, sp_nz_off = [], [], [], []
    h_parts, rs_parts = [], []
    for (
        _start, _end, _jc, sub_indptr, sub_indices, sub_data,
        h_c, rs_c, iptr, icols, ivals,
    ) in plan:
        ip_off.append(sum(p.size for p in ip_parts))
        nz_off.append(sum(p.size for p in nz_cols))
        sp_ptr_off.append(sum(p.size for p in sp_ptrs))
        sp_nz_off.append(sum(p.size for p in sp_cols))
        ip_parts.append(np.ascontiguousarray(sub_indptr, dtype=np.int64))
        nz_cols.append(np.ascontiguousarray(sub_indices, dtype=np.int64))
        nz_vals.append(np.ascontiguousarray(sub_data, dtype=np.float64))
        sp_ptrs.append(np.asarray(iptr, dtype=np.int64))
        sp_cols.append(np.ascontiguousarray(icols, dtype=np.int64))
        sp_vals.append(np.ascontiguousarray(ivals, dtype=np.float64))
        h_parts.append(np.ascontiguousarray(h_c, dtype=np.float64))
        rs_parts.append(np.ascontiguousarray(rs_c, dtype=np.float64))
    pack.ip_flat = np.concatenate(ip_parts)
    pack.ip_off = np.asarray(ip_off, dtype=np.int64)
    pack.nz_cols = np.concatenate(nz_cols)
    pack.nz_vals = np.concatenate(nz_vals)
    pack.nz_off = np.asarray(nz_off, dtype=np.int64)
    pack.h = np.concatenate(h_parts)
    pack.rs = np.concatenate(rs_parts)
    pack.sp_ptr_flat = np.concatenate(sp_ptrs)
    pack.sp_ptr_off = np.asarray(sp_ptr_off, dtype=np.int64)
    pack.sp_cols = np.concatenate(sp_cols)
    pack.sp_vals = np.concatenate(sp_vals)
    pack.sp_nz_off = np.asarray(sp_nz_off, dtype=np.int64)
    pack.max_chunk = max(p[1] - p[0] for p in plan)
    try:
        plan.kernel_pack = pack
    except AttributeError:
        pass  # plain list: correct but re-packed per call
    return pack


class NumpyKernels(KernelBackend):
    """The reference tier: delegates to the pure-NumPy implementations."""

    name = "numpy"

    def enumerate_levels(self, adj_masks, limit):
        from .bitparallel import _enumerate_levels

        return _enumerate_levels(adj_masks, limit)

    def sa_sweep(self, plan, spins_t, beta, uniforms):
        from .anneal import _sa_sweep_numpy

        return _sa_sweep_numpy(plan, spins_t, beta, uniforms)

    def tabu_descend(
        self, h, indptr, indices, data, x, energies, iterations, tenure,
        record_flips=None,
    ):
        from .anneal import _tabu_descend_numpy

        return _tabu_descend_numpy(
            h, indptr, indices, data, x, energies, iterations, tenure,
            record_flips=record_flips,
        )


def _make_numpy() -> KernelBackend:
    return NumpyKernels()


def _make_cext() -> KernelBackend:
    from .cext import CExtKernels  # raises KernelUnavailable without a compiler

    return CExtKernels()


_FACTORIES = {"numpy": _make_numpy, "cext": _make_cext}

#: Resolved backend singletons (``False`` marks a failed construction,
#: so an unavailable toolchain is probed once per process, not per call).
_instances: dict[str, KernelBackend | bool] = {}


def _get(name: str) -> KernelBackend | None:
    """The backend singleton for ``name``, or None if unavailable."""
    cached = _instances.get(name)
    if cached is False:
        return None
    if cached is not None:
        return cached  # type: ignore[return-value]
    try:
        backend = _FACTORIES[name]()
    except KernelUnavailable:
        _instances[name] = False
        return None
    except Exception:
        # A broken toolchain (compiler present but miscompiling) must
        # degrade, not poison the solve.
        _instances[name] = False
        return None
    _instances[name] = backend
    return backend


def available_backends() -> list[str]:
    """Names of the tiers that actually work in this environment."""
    return [name for name in KERNEL_NAMES if _get(name) is not None]


def resolve(name: str | None = None) -> KernelBackend:
    """The backend to use for ``name``.

    ``None`` or ``"auto"`` reads ``REPRO_KERNEL`` (itself defaulting to
    ``auto``); ``auto`` walks :data:`_AUTO_ORDER` and returns the first
    tier that constructs and self-validates.  A *named* tier that is
    unavailable falls back to NumPy silently — per the contract that
    the compiled tier is an accelerator only.  Unknown names raise
    ``ValueError`` (they are typos, not missing toolchains).
    """
    if name is None:
        name = os.environ.get("REPRO_KERNEL") or "auto"
    name = name.strip().lower()
    if name == "auto":
        for candidate in _AUTO_ORDER:
            backend = _get(candidate)
            if backend is not None:
                return backend
        return NumpyKernels()  # unreachable: numpy always constructs
    if name not in _FACTORIES:
        raise ValueError(
            f"unknown kernel backend {name!r}; expected one of "
            f"{('auto',) + KERNEL_NAMES}"
        )
    backend = _get(name)
    if backend is None:
        backend = _get("numpy")
    return backend
