"""Simulated quantum annealer (the D-Wave Advantage stand-in).

Reproduces the *workflow and failure modes* of a physical QPU rather
than its quantum dynamics:

1. the logical QUBO is minor-embedded (greedy chain growth, clique
   template fallback; if the configured chip cannot fit the problem,
   the template is laid out on the smallest Chimera grid that can —
   the real-world "move to a bigger chip" step, flagged in the result
   info);
2. per-shot annealing time ``delta_t_us`` maps to Metropolis sweeps
   (``sweeps_per_us`` each), and ``num_reads`` plays D-Wave's role —
   total QPU runtime is ``delta_t_us * num_reads`` (the paper's
   ``t = Delta t * s``), subject to the per-call access cap that
   stopped the paper's QPU curves around 10^4 us;
3. execution happens in one of two modes:

   * ``"physical"`` — the embedded model is annealed qubit-by-qubit:
     chain penalties ``strength * (x_p - x_q)^2``, per-shot Gaussian
     control noise, majority-vote unembedding, measured chain-break
     fraction.  Exact but only tractable for small embeddings.
   * ``"logical"`` — the logical model is annealed directly and chain
     breaks are *injected*: each variable's value is randomised with a
     probability growing in its chain length (a broken chain resolves
     by majority vote of a split chain, i.e. noise).  This preserves
     the phenomenology the paper measures — fast early convergence and
     degradation as embeddings grow (Figs. 13-15) — at a cost
     independent of the physical qubit count.
   * ``"auto"`` (default) picks physical when the embedding uses at
     most ``physical_qubit_budget`` qubits, logical otherwise.
"""

from __future__ import annotations

import numpy as np

from .bqm import BinaryQuadraticModel
from .embedding import (
    Embedding,
    EmbeddingError,
    clique_embedding_auto,
    find_embedding,
    suggest_chain_strength,
)
from .sa import SimulatedAnnealingSampler
from .sampleset import SampleSet
from .topology import HardwareGraph, chimera_graph

__all__ = ["QPURuntimeExceeded", "SimulatedQPUSampler"]


def _gauge_transform(
    bqm: BinaryQuadraticModel, flips: set
) -> BinaryQuadraticModel:
    """Apply the substitution ``x_v -> 1 - x_v`` for ``v in flips``.

    Returns a model with identical energies under the flipped
    interpretation: sampling the transform and un-flipping the results
    is equivalent to sampling the original, but hardware bias errors
    enter with randomised signs.
    """
    out = BinaryQuadraticModel(offset=bqm.offset)
    for v in bqm.variables:
        out.add_variable(v)
    for v, bias in bqm.linear.items():
        if v in flips:
            out.add_offset(bias)
            out.add_linear(v, -bias)
        else:
            out.add_linear(v, bias)
    for (u, v), bias in bqm.quadratic.items():
        fu, fv = u in flips, v in flips
        if fu and fv:
            # (1-x_u)(1-x_v) = 1 - x_u - x_v + x_u x_v
            out.add_offset(bias)
            out.add_linear(u, -bias)
            out.add_linear(v, -bias)
            out.add_quadratic(u, v, bias)
        elif fu:
            # (1-x_u) x_v = x_v - x_u x_v
            out.add_linear(v, bias)
            out.add_quadratic(u, v, -bias)
        elif fv:
            out.add_linear(u, bias)
            out.add_quadratic(u, v, -bias)
        else:
            out.add_quadratic(u, v, bias)
    return out


class QPURuntimeExceeded(ValueError):
    """Requested runtime exceeds the per-call cap (as on real hardware).

    Carries the request and the cap so budget-aware callers (the
    resilience layer) can clamp their next attempt instead of guessing.
    """

    def __init__(
        self,
        message: str,
        requested_us: float | None = None,
        cap_us: float | None = None,
    ) -> None:
        super().__init__(message)
        self.requested_us = requested_us
        self.cap_us = cap_us


class SimulatedQPUSampler:
    """QPU-style sampler: embed, anneal, unembed.

    Parameters
    ----------
    hardware:
        Target topology; defaults to a Chimera C16 (2048 qubits).
    sweeps_per_us:
        Metropolis sweeps corresponding to one microsecond of anneal.
    noise_scale:
        Std-dev of the relative Gaussian control noise on biases
        (physical mode).
    chain_break_per_link:
        Per-chain-link break probability (logical mode): a chain of
        length L breaks with probability ``1 - (1 - p)^(L-1)``.
    max_call_time_us:
        Per-call runtime cap; ``None`` disables it.
    physical_qubit_budget:
        Auto-mode threshold between physical and logical execution.
    allow_hardware_expansion:
        When the embedding heuristic fails on the configured chip, the
        default behaviour auto-expands to a bigger clique template (the
        "move to a larger chip" step).  Set ``False`` to model a fixed
        chip: :class:`EmbeddingError` then propagates to the caller,
        exactly as the real solver API reports an unembeddable problem.
    """

    def __init__(
        self,
        hardware: HardwareGraph | None = None,
        sweeps_per_us: float = 2.0,
        noise_scale: float = 0.02,
        chain_break_per_link: float = 0.03,
        max_call_time_us: float | None = 2.0e4,
        physical_qubit_budget: int = 600,
        allow_hardware_expansion: bool = True,
    ) -> None:
        self.hardware = hardware or chimera_graph(16)
        self.sweeps_per_us = sweeps_per_us
        self.noise_scale = noise_scale
        self.chain_break_per_link = chain_break_per_link
        self.max_call_time_us = max_call_time_us
        self.physical_qubit_budget = physical_qubit_budget
        self.allow_hardware_expansion = allow_hardware_expansion
        self._embedding_cache: dict[
            tuple[frozenset, frozenset], tuple[Embedding, bool]
        ] = {}

    def max_reads(self, annealing_time_us: float) -> int | None:
        """Largest ``num_reads`` the per-call cap admits (None = no cap)."""
        if self.max_call_time_us is None:
            return None
        return max(0, int(self.max_call_time_us // annealing_time_us))

    # ------------------------------------------------------------------
    def embed(
        self, bqm: BinaryQuadraticModel, seed: int | None = None
    ) -> Embedding:
        """Embed (cached); falls back to an auto-sized clique template."""
        return self._embed_with_flag(bqm, seed)[0]

    def _embed_with_flag(
        self, bqm: BinaryQuadraticModel, seed: int | None = None
    ) -> tuple[Embedding, bool]:
        edges = bqm.interaction_graph_edges()
        # The exact structure an embedding depends on: the variable set
        # and the unordered edge set.
        key = (frozenset(bqm.variables), frozenset(map(frozenset, edges)))
        if key not in self._embedding_cache:
            try:
                emb = find_embedding(
                    bqm.variables, edges, self.hardware, seed=seed
                )
                expanded = False
            except EmbeddingError:
                if not self.allow_hardware_expansion:
                    raise
                emb = clique_embedding_auto(bqm.variables)
                expanded = True
            self._embedding_cache[key] = (emb, expanded)
        return self._embedding_cache[key]

    def sample(
        self,
        bqm: BinaryQuadraticModel,
        annealing_time_us: float = 1.0,
        num_reads: int = 100,
        chain_strength: float | None = None,
        seed: int | None = None,
        embedding: Embedding | None = None,
        mode: str = "auto",
        num_spin_reversal_transforms: int = 0,
    ) -> SampleSet:
        """Anneal ``num_reads`` shots of ``annealing_time_us`` each.

        ``num_spin_reversal_transforms`` splits the shots across random
        gauge transforms (at most ``num_reads`` blocks, the remainder
        spread over the first ones, so exactly ``num_reads`` shots are
        taken): each block flips a random subset of variables
        (``x -> 1 - x``, adjusting biases so energies are unchanged),
        samples, and flips back.  This is the standard D-Wave technique
        for averaging out bias-leakage control errors; it only affects
        physical-mode noise, never the logical energies reported.
        """
        if annealing_time_us <= 0:
            raise ValueError(f"annealing_time_us must be > 0, got {annealing_time_us}")
        if num_reads < 1:
            raise ValueError(f"num_reads must be >= 1, got {num_reads}")
        if mode not in ("auto", "physical", "logical"):
            raise ValueError(f"mode must be auto/physical/logical, got {mode!r}")
        bqm.require_finite()
        total_us = annealing_time_us * num_reads
        if self.max_call_time_us is not None and total_us > self.max_call_time_us:
            raise QPURuntimeExceeded(
                f"requested {total_us} us exceeds the per-call cap of "
                f"{self.max_call_time_us} us",
                requested_us=total_us,
                cap_us=self.max_call_time_us,
            )
        rng = np.random.default_rng(seed)
        if embedding is not None:
            emb, expanded = embedding, False
        else:
            emb, expanded = self._embed_with_flag(bqm, seed=seed)
        if mode == "auto":
            mode = (
                "physical"
                if emb.num_physical_qubits <= self.physical_qubit_budget
                else "logical"
            )
        strength = chain_strength or suggest_chain_strength(bqm.linear, bqm.quadratic)
        sweeps = max(1, int(round(annealing_time_us * self.sweeps_per_us)))
        if num_spin_reversal_transforms > 0:
            result = self._sample_with_gauges(
                bqm, emb, strength, sweeps, num_reads, rng, seed, mode,
                num_spin_reversal_transforms,
            )
        elif mode == "physical":
            result = self._sample_physical(bqm, emb, strength, sweeps, num_reads, rng, seed)
        else:
            result = self._sample_logical(bqm, emb, sweeps, num_reads, rng, seed)
        result.info.update(
            {
                "annealing_time_us": annealing_time_us,
                "num_reads": num_reads,
                "total_runtime_us": total_us,
                "sweeps_per_read": sweeps,
                "chain_strength": strength,
                "average_chain_length": emb.average_chain_length,
                "num_physical_qubits": emb.num_physical_qubits,
                "execution_mode": mode,
                "hardware_expanded": expanded,
            }
        )
        return result

    # ------------------------------------------------------------------
    # Spin-reversal (gauge) transforms
    # ------------------------------------------------------------------
    def _sample_with_gauges(
        self,
        bqm: BinaryQuadraticModel,
        emb: Embedding,
        strength: float,
        sweeps: int,
        num_reads: int,
        rng: np.random.Generator,
        seed: int | None,
        mode: str,
        num_gauges: int,
    ) -> SampleSet:
        blocks = min(max(1, num_gauges), num_reads)
        base_reads, extra_reads = divmod(num_reads, blocks)
        all_samples: list = []
        break_fractions: list[float] = []
        for block in range(blocks):
            flips = {
                v for v in bqm.variables if rng.random() < 0.5
            }
            gauged = _gauge_transform(bqm, flips)
            block_seed = None if seed is None else seed + 7 * block
            reads_per_block = base_reads + 1 if block < extra_reads else base_reads
            if mode == "physical":
                raw = self._sample_physical(
                    gauged, emb, strength, sweeps, reads_per_block, rng, block_seed
                )
            else:
                raw = self._sample_logical(
                    gauged, emb, sweeps, reads_per_block, rng, block_seed
                )
            break_fractions.append(float(raw.info.get("chain_break_fraction", 0.0)))
            for sample in raw.samples:
                for _ in range(sample.num_occurrences):
                    undone = {
                        v: (1 - x if v in flips else x)
                        for v, x in sample.assignment.items()
                    }
                    all_samples.append(undone)
        energies = [bqm.energy(a) for a in all_samples]
        out = SampleSet.from_states(all_samples, energies)
        out.info["chain_break_fraction"] = (
            sum(break_fractions) / len(break_fractions) if break_fractions else 0.0
        )
        out.info["num_spin_reversal_transforms"] = blocks
        return out

    # ------------------------------------------------------------------
    # Physical mode
    # ------------------------------------------------------------------
    def _sample_physical(
        self,
        bqm: BinaryQuadraticModel,
        emb: Embedding,
        strength: float,
        sweeps: int,
        num_reads: int,
        rng: np.random.Generator,
        seed: int | None,
    ) -> SampleSet:
        physical = self._embed_bqm(bqm, emb, strength, rng)
        sampler = SimulatedAnnealingSampler()
        raw = sampler.sample(
            physical,
            num_reads=num_reads,
            num_sweeps=sweeps,
            seed=None if seed is None else seed + 1,
        )
        return self._unembed(bqm, emb, raw, rng)

    def _embed_bqm(
        self,
        bqm: BinaryQuadraticModel,
        emb: Embedding,
        strength: float,
        rng: np.random.Generator,
    ) -> BinaryQuadraticModel:
        physical = BinaryQuadraticModel(offset=bqm.offset)
        noise = lambda: 1.0 + rng.normal(0.0, self.noise_scale)  # noqa: E731
        for var, bias in bqm.linear.items():
            chain = emb.chains[var]
            share = bias / len(chain)
            for q in chain:
                if share:
                    physical.add_linear(q, share * noise())
                else:
                    physical.add_variable(q)
        for (u, v), bias in bqm.quadratic.items():
            if bias == 0.0:
                continue
            couplers = [
                (p, q)
                for p in emb.chains[u]
                for q in emb.chains[v]
                if emb.hardware.are_coupled(p, q)
            ]
            share = bias / len(couplers)
            for p, q in couplers:
                physical.add_quadratic(p, q, share * noise())
        # Ferromagnetic chain penalties: strength * (x_p - x_q)^2 along
        # the intra-chain couplers.
        for var, chain in emb.chains.items():
            members = set(chain)
            for p in chain:
                for q in emb.hardware.adjacency[p]:
                    if q in members and p < q:
                        physical.add_linear(p, strength)
                        physical.add_linear(q, strength)
                        physical.add_quadratic(p, q, -2.0 * strength)
        return physical

    def _unembed(
        self,
        bqm: BinaryQuadraticModel,
        emb: Embedding,
        raw: SampleSet,
        rng: np.random.Generator,
    ) -> SampleSet:
        assignments = []
        broken_chains = 0
        total_chains = 0
        for sample in raw.samples:
            for _ in range(sample.num_occurrences):
                logical: dict[object, int] = {}
                for var, chain in emb.chains.items():
                    ones = sum(sample.assignment[q] for q in chain)
                    total_chains += 1
                    if 0 < ones < len(chain):
                        broken_chains += 1
                    if ones * 2 == len(chain):
                        logical[var] = int(rng.integers(0, 2))
                    else:
                        logical[var] = int(ones * 2 > len(chain))
                assignments.append(logical)
        energies = [bqm.energy(a) for a in assignments]
        out = SampleSet.from_states(assignments, energies)
        out.info["chain_break_fraction"] = (
            broken_chains / total_chains if total_chains else 0.0
        )
        return out

    # ------------------------------------------------------------------
    # Logical mode (chain-noise model)
    # ------------------------------------------------------------------
    def _sample_logical(
        self,
        bqm: BinaryQuadraticModel,
        emb: Embedding,
        sweeps: int,
        num_reads: int,
        rng: np.random.Generator,
        seed: int | None,
    ) -> SampleSet:
        order = bqm.variables
        break_probs = np.array(
            [
                1.0 - (1.0 - self.chain_break_per_link) ** (len(emb.chains[v]) - 1)
                for v in order
            ]
        )
        sampler = SimulatedAnnealingSampler()
        raw = sampler.sample(
            bqm,
            num_reads=num_reads,
            num_sweeps=sweeps,
            seed=None if seed is None else seed + 1,
        )
        # One row per shot, in the order the set lists its samples: the
        # chain-break draws below are made over the rows in that order.
        states = raw.state_matrix(order)
        breaks = rng.random(states.shape) < break_probs[None, :]
        random_bits = rng.integers(0, 2, size=states.shape)
        states = np.where(breaks, random_bits, states).astype(np.int8)
        out = SampleSet.from_matrix(order, states, bqm.energies(states))
        out.info["chain_break_fraction"] = float(breaks.mean())
        return out
