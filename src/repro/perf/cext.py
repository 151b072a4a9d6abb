"""C-extension kernel tier: on-demand compiled ``_kernels.c`` via ctypes.

A "cython-style" compiled tier without build-time machinery: the C
source ships as package data, and the first resolution of the ``cext``
backend compiles it with the system C compiler into a per-source-digest
shared library under a user cache directory (atomic rename, so
concurrent processes — e.g. a service's runner children — race
safely).  No ``Python.h``, no setuptools: the library is plain C driven
through ``ctypes``, which keeps the tier optional and the toolchain
requirement to "any cc".

Compilation uses ``-ffp-contract=off`` so the compiler cannot fuse
multiply-adds into FMAs — the float kernels replay the NumPy
reference's operation sequence and must round at every step exactly as
it does.  The lone reference divergence is ``exp``: libm's and NumPy's
vectorised ``exp`` can differ in the last ulp, which can flip a
Metropolis acceptance only when a uniform draw lands inside that
``2^-52``-wide gap (never observed in the equivalence suite's budget;
``delta <= 0`` short-circuits exactly, matching ``exp(0) == 1.0``).

Every load self-validates against the NumPy reference on a fixed probe
instance before the backend is offered; any mismatch raises
:class:`~repro.perf.kernels.KernelUnavailable` and the registry falls
back to NumPy.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
import weakref
from pathlib import Path

import numpy as np
from numpy.ctypeslib import ndpointer

from .kernels import KernelBackend, KernelUnavailable

__all__ = ["CExtKernels", "shared_library_path"]

_SOURCE = Path(__file__).with_name("_kernels.c")

_U64 = ndpointer(dtype=np.uint64, flags="C_CONTIGUOUS")
_I64 = ndpointer(dtype=np.int64, flags="C_CONTIGUOUS")
_F64 = ndpointer(dtype=np.float64, flags="C_CONTIGUOUS")
_I8 = ndpointer(dtype=np.int8, flags="C_CONTIGUOUS")


def _compiler() -> str | None:
    for cand in (os.environ.get("CC"), "cc", "gcc", "clang"):
        if cand and shutil.which(cand):
            return cand
    return None


def _cache_dir() -> Path:
    override = os.environ.get("REPRO_KERNEL_CACHE")
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro-kernels"


def shared_library_path() -> Path:
    """Where the compiled library for the current source lives (or will)."""
    cc = _compiler() or "none"
    digest = hashlib.sha256(
        _SOURCE.read_bytes() + cc.encode()
    ).hexdigest()[:16]
    return _cache_dir() / f"repro_kernels-{digest}.so"


def _build_library() -> Path:
    cc = _compiler()
    if cc is None:
        raise KernelUnavailable("no C compiler on PATH")
    if not _SOURCE.exists():
        raise KernelUnavailable(f"kernel source missing: {_SOURCE}")
    out = shared_library_path()
    if out.exists():
        return out
    out.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(suffix=".so", dir=out.parent)
    os.close(fd)
    try:
        proc = subprocess.run(
            [
                cc, "-O3", "-fPIC", "-shared", "-ffp-contract=off",
                "-o", tmp, str(_SOURCE), "-lm",
            ],
            capture_output=True,
            text=True,
        )
        if proc.returncode != 0:
            raise KernelUnavailable(
                f"kernel compile failed ({cc}): {proc.stderr.strip()[:500]}"
            )
        os.replace(tmp, out)  # atomic: concurrent builders converge
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return out


def _load_library() -> ctypes.CDLL:
    lib = ctypes.CDLL(str(_build_library()))
    lib.enumerate_levels.restype = ctypes.c_void_p
    lib.enumerate_levels.argtypes = [
        _U64, ctypes.c_int64, ctypes.c_int64,           # adj, n, limit
        _I64, _I64,                                      # counts, candidates
    ]
    lib.release_levels.restype = None
    lib.release_levels.argtypes = [ctypes.c_void_p]
    # Called once per sweep with raw addresses: the pack's 13 arrays are
    # pinned by the pack (PackedPlan.addresses), and anneal.sa_sweep
    # checks the dtype, contiguity and shape of the spins and uniforms,
    # so no argument pays ndpointer's per-call validation.
    lib.sa_sweep_plan.restype = ctypes.c_int64
    lib.sa_sweep_plan.argtypes = (
        [ctypes.c_int64, ctypes.c_int64]                 # reads, nchunks
        + [ctypes.c_void_p] * 13                         # the pack's arrays
        + [ctypes.c_void_p, ctypes.c_void_p]             # spins_t, uniforms
        + [ctypes.c_double, ctypes.c_void_p]             # -beta, scratch
    )
    lib.refresh_fields.restype = None
    lib.refresh_fields.argtypes = [
        ctypes.c_int64, ctypes.c_int64,                  # reads, n
        _I64, _I64, _F64,                                # csr
        _F64, _F64,                                      # h, row sums
        _F64, _F64,                                      # spins_t, fields
    ]
    lib.tabu_descend.restype = None
    lib.tabu_descend.argtypes = [
        ctypes.c_int64, ctypes.c_int64,                  # R, n
        _I64, _I64, _F64, _F64,                          # csr, h
        _I8, _F64,                                       # x, energy
        ctypes.c_int64, ctypes.c_int64,                  # iterations, tenure
        ctypes.c_void_p,                                 # record (nullable)
        _I8, _F64,                                       # best_x, best_energy
        _F64, _I64,                                      # delta, tabu scratch
    ]
    return lib


class _NativeLevels:
    """Owner of an ``enumerate_levels`` buffer, exposed to NumPy through
    the array interface: the array keeps this object as its base, and
    collecting it hands the buffer back to ``release_levels``."""

    def __init__(self, lib: ctypes.CDLL, address: int, total: int) -> None:
        self.__array_interface__ = {
            "data": (address, False),
            "shape": (total,),
            "typestr": np.dtype(np.int64).str,
            "version": 3,
        }
        # Not at exit: an array may outlive its finalizer's registry
        # during interpreter teardown, and the OS reclaims the buffer.
        weakref.finalize(self, lib.release_levels, address).atexit = False


class CExtKernels(KernelBackend):
    """The compiled-C tier (see module docstring)."""

    name = "cext"

    def __init__(self) -> None:
        self._lib = _load_library()
        from .selfcheck import validate_backend

        validate_backend(self)

    # ------------------------------------------------------------------
    def enumerate_levels(self, adj_masks, limit):
        n = len(adj_masks)
        counts = np.zeros(n + 1, dtype=np.int64)
        candidates = np.zeros(1, dtype=np.int64)
        levels = self._lib.enumerate_levels(
            np.asarray(adj_masks, dtype=np.uint64), n, limit, counts, candidates
        )
        if not levels:
            raise MemoryError("enumerate_levels: out of memory")
        # The native buffer becomes the array, uncopied; it is freed when
        # the last array over it is collected.
        by_size = np.asarray(_NativeLevels(self._lib, levels, int(counts.sum())))
        return by_size, counts, int(candidates[0])

    def sa_sweep(self, plan, spins_t, beta, uniforms):
        from .kernels import pack_sweep_plan

        pack = pack_sweep_plan(plan)
        scratch = np.empty(pack.max_chunk * spins_t.shape[1])
        return self._lib.sa_sweep_plan(
            spins_t.shape[1], pack.nchunks, *pack.addresses,
            spins_t.ctypes.data, uniforms.ctypes.data, -beta,
            scratch.ctypes.data,
        )

    def refresh_fields(self, h, indptr, indices, data, row_sums, spins_t):
        n, reads = spins_t.shape
        if not data.size:
            return np.repeat(h[:, None], reads, axis=1)
        if indptr.size != n + 1 or h.size != n or row_sums.size != n:
            raise ValueError("refresh_fields: model and batch sizes differ")
        fields = np.empty((n, reads))
        self._lib.refresh_fields(
            reads, n,
            np.ascontiguousarray(indptr, dtype=np.int64),
            np.ascontiguousarray(indices, dtype=np.int64),
            np.ascontiguousarray(data, dtype=np.float64),
            np.ascontiguousarray(h, dtype=np.float64),
            np.ascontiguousarray(row_sums, dtype=np.float64),
            np.ascontiguousarray(spins_t, dtype=np.float64),
            fields,
        )
        return fields

    def tabu_descend(
        self, h, indptr, indices, data, x, energies, iterations, tenure,
        record_flips=None,
    ):
        num_restarts, n = x.shape
        energy = np.asarray(energies, dtype=np.float64)
        best_energy = energy.copy()
        best_x = x.copy()
        delta = np.empty((num_restarts, n), dtype=np.float64)
        tabu_until = np.empty((num_restarts, n), dtype=np.int64)
        record = (
            np.zeros((max(iterations, 1), num_restarts), dtype=np.int64)
            if record_flips is not None
            else None
        )
        self._lib.tabu_descend(
            num_restarts, n,
            np.ascontiguousarray(indptr, dtype=np.int64),
            np.ascontiguousarray(indices, dtype=np.int64),
            np.ascontiguousarray(data, dtype=np.float64),
            np.ascontiguousarray(h, dtype=np.float64),
            x, energy, iterations, tenure,
            None if record is None else record.ctypes.data_as(ctypes.c_void_p),
            best_x, best_energy, delta, tabu_until,
        )
        if record_flips is not None:
            record_flips.extend(record[step].copy() for step in range(iterations))
        return best_x, best_energy
