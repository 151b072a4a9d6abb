"""Pluggable compiled-kernel tier for the perf engine's hot loops.

Three inner loops dominate the pipeline's classical runtime — the
level-by-level k-plex mask enumeration
(:func:`repro.perf.bitparallel.kplex_levels`), the CSR Metropolis
sweep with its final field refresh, and the batched tabu flip loop
(:mod:`repro.perf.anneal`).  Each has exactly one reference
implementation (pure NumPy, byte-identical to the seed) and one
compiled twin behind a common :class:`KernelBackend` interface:

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

    Every entry point takes and returns exactly what the NumPy
    reference function does, and must produce byte-identical integer
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
        self, plan, spins_t: np.ndarray, beta: float, uniforms: np.ndarray
    ) -> int:
        """One sweep of a :class:`~repro.perf.anneal.SweepPlan` over
        canonical (float64, C-contiguous, ``(n, reads)``) spins and
        uniforms — :func:`repro.perf.anneal.sa_sweep` checks the layout."""
        raise NotImplementedError

    def refresh_fields(
        self,
        h: np.ndarray,
        indptr: np.ndarray,
        indices: np.ndarray,
        data: np.ndarray,
        row_sums: np.ndarray,
        spins_t: np.ndarray,
    ) -> np.ndarray:
        """:func:`repro.perf.anneal.refresh_fields_t`: the fields of a
        whole transposed ±1 batch, byte for byte."""
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
    chunk of a sweep inside one native call.  ``addresses`` holds the
    arrays' data pointers in that call's argument order, taken once:
    the pack owns the arrays, so the pointers stay valid for as long as
    the pack (memoized on its plan) lives, and a sweep marshals only its
    spins, uniforms and scratch.
    """

    __slots__ = ("nchunks", "max_chunk", "arrays", "addresses")


def _flat(plan, field: int, dtype) -> tuple[np.ndarray, np.ndarray]:
    """Field ``field`` of every chunk concatenated, and each chunk's
    base offset into it."""
    parts = [np.asarray(chunk[field], dtype=dtype) for chunk in plan]
    sizes = np.array([part.size for part in parts], dtype=np.int64)
    offsets = np.zeros(len(parts), dtype=np.int64)
    np.cumsum(sizes[:-1], out=offsets[1:])
    return np.concatenate(parts), offsets


def pack_sweep_plan(plan) -> PackedPlan:
    """Flatten a non-empty :class:`~repro.perf.anneal.SweepPlan` into a
    :class:`PackedPlan`, memoized on the plan (``kernel_pack``)."""
    if plan.kernel_pack is not None:
        return plan.kernel_pack
    bounds = np.array([chunk[0] for chunk in plan] + [plan[-1][1]], dtype=np.int64)
    ip_flat, ip_off = _flat(plan, 2, np.int64)
    nz_cols, nz_off = _flat(plan, 3, np.int64)
    nz_vals, _ = _flat(plan, 4, np.float64)
    h, _ = _flat(plan, 5, np.float64)
    rs, _ = _flat(plan, 6, np.float64)
    sp_ptr_flat, sp_ptr_off = _flat(plan, 7, np.int64)
    sp_cols, sp_nz_off = _flat(plan, 8, np.int64)
    sp_vals, _ = _flat(plan, 9, np.float64)
    pack = PackedPlan()
    pack.nchunks = len(plan)
    pack.max_chunk = int(np.diff(bounds).max())
    pack.arrays = (
        bounds, ip_flat, ip_off, nz_cols, nz_vals, nz_off, h, rs,
        sp_ptr_flat, sp_ptr_off, sp_cols, sp_vals, sp_nz_off,
    )
    pack.addresses = tuple(array.ctypes.data for array in pack.arrays)
    plan.kernel_pack = pack
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

    def refresh_fields(self, h, indptr, indices, data, row_sums, spins_t):
        from .anneal import refresh_fields_t

        return refresh_fields_t(h, indptr, indices, data, row_sums, spins_t)

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
