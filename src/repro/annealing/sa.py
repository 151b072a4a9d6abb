"""Simulated annealing sampler (the classical "SA" baseline / neal stand-in).

Single-spin-flip Metropolis over a QUBO with a geometric inverse-
temperature schedule, vectorised across reads: all ``num_reads``
replicas advance together on the sparse incremental engine
(:mod:`repro.perf.anneal`).  Sweeps walk a chunked schedule over the
CSR couplings — each chunk's local fields ``h + states @ J_sym`` are
built in one compiled sparse product and accepted flips scatter only
to intra-chunk neighbours — so a sweep costs ``O(num_reads * nnz)``
work instead of ``num_vars`` dense matrix-vector products, while
consuming the RNG stream exactly as the seed dense sampler did, so
fixed-seed runs are flip-for-flip (and sampleset-for-sampleset)
identical.

The paper's SA baseline controls runtime exactly like the annealer: a
fixed small number of sweeps per read and a shot count ``s`` that scales
with the runtime budget.
"""

from __future__ import annotations

import numpy as np

from ..obs import NULL_TRACER
from ..perf.anneal import (
    fields_energies,
    fields_energies_t,
    refresh_fields_t,
    sa_shard_reads,
    sa_sweep,
)
from .bqm import BinaryQuadraticModel
from .sampleset import SampleSet

__all__ = ["SimulatedAnnealingSampler"]


class SimulatedAnnealingSampler:
    """Metropolis annealer over binary quadratic models.

    Parameters
    ----------
    beta_range:
        Optional ``(beta_hot, beta_cold)``; derived from the model's
        coefficient magnitudes when omitted (hot enough to accept
        almost any flip, cold enough to freeze the largest bias).
    """

    def __init__(self, beta_range: tuple[float, float] | None = None) -> None:
        self.beta_range = beta_range

    def sample(
        self,
        bqm: BinaryQuadraticModel,
        num_reads: int = 10,
        num_sweeps: int = 100,
        seed: int | None = None,
        initial_states: np.ndarray | None = None,
        beta_schedule: np.ndarray | None = None,
        workers: int | None = None,
        tracer=None,
        kernel: str | None = None,
    ) -> SampleSet:
        """Run ``num_reads`` independent anneals of ``num_sweeps`` sweeps.

        ``kernel`` selects the sweep kernel backend
        (:mod:`repro.perf.kernels`); None honours ``REPRO_KERNEL``.
        Every backend produces flip-for-flip identical samplesets.

        ``beta_schedule`` overrides the built-in geometric ramp with an
        explicit per-sweep beta sequence (see
        :mod:`repro.annealing.schedule`); its length supersedes
        ``num_sweeps``.

        ``workers`` (> 1) shards the replica batch over a process pool.
        All uniform draws are made up front on this side of the fork, so
        sharded results stay byte-identical to in-process ones — at the
        cost of materialising the full ``(sweeps, vars, reads)`` draw
        tensor, which is what bounds sensible shard sizes.

        ``tracer`` (optional :class:`repro.obs.Tracer`) opens one
        ``anneal.sa`` span with an ``anneal.sweep`` child per sweep
        (sharded runs charge the pool's sweeps in aggregate, like the
        perf engine's chunk workers); the span claims the exact sweep
        and accepted-flip totals also reported in ``info``, so the run
        ledger reconciles them bit-for-bit.
        """
        if num_reads < 1:
            raise ValueError(f"num_reads must be >= 1, got {num_reads}")
        if num_sweeps < 1:
            raise ValueError(f"num_sweeps must be >= 1, got {num_sweeps}")
        if beta_schedule is not None:
            beta_schedule = np.asarray(beta_schedule, dtype=float)
            if beta_schedule.ndim != 1 or beta_schedule.size < 1:
                raise ValueError("beta_schedule must be a non-empty 1-D array")
            num_sweeps = int(beta_schedule.size)
        bqm.require_finite()
        tracer = tracer or NULL_TRACER
        rng = np.random.default_rng(seed)
        csr = bqm.to_csr()
        order = list(csr.order)
        n = csr.num_variables
        if n == 0:
            # One independent dict per read: a shared literal here would
            # alias every sample onto the same mutable assignment.
            result = SampleSet.from_states(
                [{} for _ in range(num_reads)], [bqm.offset] * num_reads
            )
            result.info.update(
                {
                    "num_reads": num_reads,
                    "sweeps_per_read": num_sweeps,
                    "num_flips": 0,
                }
            )
            return result
        if initial_states is not None:
            init = np.asarray(initial_states, dtype=float)
            if init.shape != (num_reads, n):
                raise ValueError(
                    f"initial_states must be ({num_reads}, {n}), got {init.shape}"
                )
            init = init.astype(np.int8)
        else:
            init = rng.integers(0, 2, size=(num_reads, n)).astype(np.int8)
        betas = (
            beta_schedule
            if beta_schedule is not None
            else self._schedule(csr, num_sweeps)
        )
        row_sums = csr.row_sums
        spmat = csr.spmatrix
        with tracer.span(
            "anneal.sa", num_reads=num_reads, num_sweeps=num_sweeps, num_variables=n
        ) as span:
            if workers is not None and workers > 1 and num_reads > 1:
                uniforms = rng.random((num_sweeps, n, num_reads))
                states, fields, per_sweep = sa_shard_reads(
                    csr.h, csr.indptr, csr.indices, csr.data, row_sums,
                    init, betas, uniforms, workers, kernel=kernel,
                )
                # Energies come straight from the returned fields —
                # O(reads*n), no per-pair gather; row-wise reductions
                # keep every replica's value shard-independent.
                energies = fields_energies(
                    states.astype(np.float64), fields, csr.h, float(bqm.offset)
                )
                total_flips = int(per_sweep.sum())
                tracer.add("anneal_sweeps", num_sweeps)
                tracer.add("anneal_flips", total_flips)
            else:
                plan = csr.sweep_plan
                spins_t = np.ascontiguousarray(init.T, dtype=np.float64)
                spins_t *= -2.0
                spins_t += 1.0                       # ±1 view: t = 1 - 2s
                total_flips = 0
                for t, beta in enumerate(betas):
                    with tracer.span("anneal.sweep", sweep=t):
                        uniforms = rng.random((n, num_reads))
                        flips = sa_sweep(
                            plan, spins_t, float(beta), uniforms, kernel=kernel
                        )
                        tracer.add("anneal_sweeps", 1)
                        tracer.add("anneal_flips", flips)
                        total_flips += flips
                # The sweep's chunk-local fields are transient; energies
                # want full fields, priced in the transposed layout
                # directly — no batch transposes.
                fields_t = refresh_fields_t(
                    csr.h, csr.indptr, csr.indices, csr.data, row_sums,
                    spins_t, spmat,
                )
                states = spins_t.T.astype(np.int8, order="C")
                np.subtract(1, states, out=states)
                states >>= 1                         # back to 0/1, exactly
                energies = fields_energies_t(
                    spins_t, fields_t, csr.h, float(bqm.offset)
                )
            span.claim("anneal_sweeps", num_sweeps)
            span.claim("anneal_flips", total_flips)
        result = SampleSet.from_matrix(order, states, energies)
        result.info.update(
            {
                "num_reads": num_reads,
                "sweeps_per_read": num_sweeps,
                "num_flips": total_flips,
            }
        )
        return result

    def _schedule(self, csr, num_sweeps: int) -> np.ndarray:
        """Geometric beta ramp sized to the model's energy scale."""
        if self.beta_range is not None:
            hot, cold = self.beta_range
        else:
            # Largest possible single-flip |delta E| bounds the hot end;
            # the smallest non-zero coefficient sets the cold end.
            max_delta = float(np.max(np.abs(csr.h) + csr.abs_row_sums()))
            coeffs = np.concatenate(
                [np.abs(csr.h[csr.h != 0]), np.abs(csr.data[csr.data != 0])]
            )
            min_coeff = float(coeffs.min()) if coeffs.size else 1.0
            max_delta = max(max_delta, 1e-9)
            hot = np.log(2.0) / max_delta
            cold = np.log(100.0) / max(min_coeff, 1e-9)
        if num_sweeps == 1:
            return np.array([cold])
        return np.geomspace(max(hot, 1e-12), max(cold, hot * 1.0001), num_sweeps)
