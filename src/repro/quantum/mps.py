"""Matrix product state (MPS) simulation of wide circuits.

The paper ran qTKP on "IBM simulators MPS": tensor-network simulators
that handle circuits far wider than dense statevectors whenever the
entanglement stays bounded.  The qTKP oracle is exactly that regime —
its hundreds of ancilla qubits are classical functions of the ``n``
vertex qubits, so across any cut the Schmidt rank never exceeds
``2^n`` — which is why the authors could simulate 90+ qubit circuits
for n = 10 graphs.

This module implements that methodology for real:

* :class:`MatrixProductState` — a train of site tensors
  ``(chi_left, 2, chi_right)`` with exact or truncated SVD splitting;
* arbitrary gates from the circuit IR: single-qubit gates contract
  locally; multi-qubit gates (CNOT, C^kNOT, MCZ, ...) are applied by
  swapping their operands adjacent, contracting the dense
  ``2^k``-dimensional block, and re-splitting site by site;
* :func:`simulate_mps` — run any :class:`~repro.quantum.circuit.QuantumCircuit`;
* amplitude queries and register marginals for cross-checking against
  the dense simulator and the phase-oracle Grover backend.

It is a faithful, slow reference implementation (clarity over speed):
the test suite uses it to validate the full qTKP circuit — including
every ancilla — on small graphs, closing the loop on DESIGN.md's MPS
substitution claim.
"""

from __future__ import annotations

import numpy as np

from .circuit import QuantumCircuit
from .gates import Gate

__all__ = ["MPSNormError", "MatrixProductState", "simulate_mps"]

#: A truncated MPS whose norm has drifted further than this below 1 no
#: longer represents the circuit's state faithfully enough to read
#: probabilities from; see :class:`MPSNormError`.
DEFAULT_NORM_TOLERANCE = 1e-6


class MPSNormError(RuntimeError):
    """The MPS norm drifted below tolerance (bond truncation ate weight).

    Raised by probability queries instead of silently returning an
    unnormalized distribution: a capped ``max_bond`` that is too small
    for the circuit's entanglement discards Schmidt weight on every
    split, and the resulting marginals under-count every outcome.  The
    message carries the measured norm and the accumulated discarded
    weight so the caller can tell how far gone the state is; raise the
    bond cap (or pass ``norm_tolerance=None`` to opt into the
    unnormalized numbers knowingly).
    """

    def __init__(self, norm: float, truncation_error: float, tolerance: float) -> None:
        super().__init__(
            f"MPS norm {norm:.6g} drifted below 1 - {tolerance:g} "
            f"(cumulative discarded Schmidt weight {truncation_error:.6g}); "
            "probabilities would be unnormalized — raise max_bond or pass "
            "norm_tolerance=None to accept them"
        )
        self.norm = norm
        self.truncation_error = truncation_error
        self.tolerance = tolerance

_SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)


class MatrixProductState:
    """A pure state of ``num_qubits`` qubits in MPS form.

    Site ``i`` holds a tensor of shape ``(chi_{i}, 2, chi_{i+1})``;
    ``chi_0 = chi_n = 1``.  Qubit ``i`` is bit ``i`` of basis indices
    (little endian), matching the dense simulator's convention.

    Parameters
    ----------
    num_qubits:
        Width of the register; initialised to |0...0>.
    max_bond:
        Truncation threshold for the bond dimension (``None`` = exact).
    norm_tolerance:
        Probability queries raise :class:`MPSNormError` when the state's
        norm has drifted more than this below 1 (truncation discarded
        real Schmidt weight).  ``None`` disables the guard and returns
        the unnormalized numbers, matching the old silent behaviour.
    """

    def __init__(
        self,
        num_qubits: int,
        max_bond: int | None = None,
        norm_tolerance: float | None = DEFAULT_NORM_TOLERANCE,
    ) -> None:
        if num_qubits < 1:
            raise ValueError(f"num_qubits must be >= 1, got {num_qubits}")
        if max_bond is not None and max_bond < 1:
            raise ValueError(f"max_bond must be >= 1, got {max_bond}")
        if norm_tolerance is not None and norm_tolerance <= 0:
            raise ValueError(f"norm_tolerance must be > 0, got {norm_tolerance}")
        self.num_qubits = num_qubits
        self.max_bond = max_bond
        self.norm_tolerance = norm_tolerance
        self.truncation_error = 0.0
        zero = np.zeros((1, 2, 1), dtype=complex)
        zero[0, 0, 0] = 1.0
        self._sites: list[np.ndarray] = [zero.copy() for _ in range(num_qubits)]

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    @property
    def bond_dimensions(self) -> list[int]:
        """Current bond dimensions (length ``num_qubits - 1``)."""
        return [self._sites[i].shape[2] for i in range(self.num_qubits - 1)]

    @property
    def max_bond_reached(self) -> int:
        return max(self.bond_dimensions, default=1)

    @property
    def discarded_weight(self) -> float:
        """Cumulative squared Schmidt weight dropped by bond truncation.

        Zero for an exact simulation; each truncated SVD adds the sum of
        the squared singular values it threw away (the standard
        discarded-weight error measure for MPS).
        """
        return self.truncation_error

    def check_norm(self) -> float:
        """The norm, raising :class:`MPSNormError` when out of tolerance."""
        norm = self.norm()
        if (
            self.norm_tolerance is not None
            and norm < 1.0 - self.norm_tolerance
        ):
            raise MPSNormError(norm, self.truncation_error, self.norm_tolerance)
        return norm

    def amplitude(self, bits: int) -> complex:
        """<bits|psi> for a basis state given as a little-endian mask."""
        if bits < 0 or bits >= (1 << self.num_qubits):
            raise ValueError(f"basis index {bits} out of range")
        vec = np.ones((1,), dtype=complex)
        for i, site in enumerate(self._sites):
            b = (bits >> i) & 1
            vec = vec @ site[:, b, :]
        return complex(vec[0])

    def norm(self) -> float:
        """The state's 2-norm (1.0 up to truncation error)."""
        # Contract <psi|psi> left to right.
        env = np.ones((1, 1), dtype=complex)
        for site in self._sites:
            env = np.einsum("ab,aic,bid->cd", env, site.conj(), site)
        return float(np.sqrt(abs(env[0, 0])))

    def marginal_probabilities(self, qubits: list[int]) -> dict[int, float]:
        """Distribution over the listed qubits (others traced out).

        Exponential in ``len(qubits)`` — meant for small registers
        (e.g. the vertex register of an oracle circuit).

        Raises
        ------
        MPSNormError
            When bond truncation has eaten enough Schmidt weight that
            the distribution would be unnormalized (guarded by
            ``norm_tolerance``; pass ``None`` at construction to opt
            out).
        """
        self.check_norm()
        keep = list(qubits)
        out: dict[int, float] = {}
        for pattern in range(1 << len(keep)):
            probs = self._pattern_probability(
                {q: (pattern >> j) & 1 for j, q in enumerate(keep)}
            )
            if probs > 1e-14:
                out[pattern] = probs
        return out

    def _pattern_probability(self, fixed: dict[int, int]) -> float:
        env = np.ones((1, 1), dtype=complex)
        for i, site in enumerate(self._sites):
            if i in fixed:
                piece = site[:, fixed[i]:fixed[i] + 1, :]
            else:
                piece = site
            env = np.einsum("ab,aic,bid->cd", env, piece.conj(), piece)
        return float(abs(env[0, 0]))

    # ------------------------------------------------------------------
    # Gate application
    # ------------------------------------------------------------------
    def apply_gate(self, gate: Gate) -> None:
        """Apply one IR gate (any number of controls)."""
        qubits = sorted(gate.qubits)
        if len(qubits) == 1:
            self._apply_single(gate.matrix(), qubits[0])
            return
        matrix = _dense_operator(gate)
        self._apply_block(gate, qubits, matrix)

    def _apply_single(self, u: np.ndarray, qubit: int) -> None:
        self._sites[qubit] = np.einsum("ps,asb->apb", u, self._sites[qubit])

    def _apply_block(self, gate: Gate, qubits: list[int], matrix: np.ndarray) -> None:
        """Swap operands adjacent, contract the dense block, re-split."""
        # Move every operand next to the first one, preserving their
        # relative order; record the moves so they can be undone.
        positions = list(qubits)
        moves: list[tuple[int, int]] = []
        anchor = positions[0]
        for idx in range(1, len(positions)):
            target = anchor + idx
            current = positions[idx]
            while current > target:
                self._swap_adjacent(current - 1)
                moves.append((current - 1, current))
                current -= 1
            positions[idx] = target
        block = list(range(anchor, anchor + len(qubits)))

        # The gate's qubit-order within the block: operands were sorted
        # ascending and kept in relative order, so block position j
        # corresponds to sorted qubit j.  Build the permuted matrix so
        # its index order matches (little endian inside the block).
        self._contract_block(block, matrix)

        for left, _right in reversed(moves):
            self._swap_adjacent(left)

    def _swap_adjacent(self, left: int) -> None:
        """Swap qubits ``left`` and ``left + 1``."""
        self._contract_block([left, left + 1], _SWAP)

    def _contract_block(self, block: list[int], matrix: np.ndarray) -> None:
        """Apply a dense operator to contiguous sites ``block``."""
        k = len(block)
        first = block[0]
        # Merge the k site tensors into one (chi_L, 2^k, chi_R) tensor.
        theta = self._sites[first]
        for offset in range(1, k):
            nxt = self._sites[first + offset]
            theta = np.einsum("apb,bqc->apqc", theta, nxt).reshape(
                theta.shape[0], -1, nxt.shape[2]
            )
        chi_l, dim, chi_r = theta.shape
        # Reorder physical index to little-endian *within the block*:
        # merging produced (site0, site1, ...) as the slowest-to-fastest
        # axes order (site0 major).  Express as big-endian digits and
        # convert to the operator's little-endian convention.
        theta = theta.reshape((chi_l,) + (2,) * k + (chi_r,))
        # axes currently: site0, site1, ... siteK-1 with site0 slowest.
        # Little-endian operator indexing wants site0 as bit 0 (fastest).
        perm = (0,) + tuple(range(k, 0, -1)) + (k + 1,)
        theta = theta.transpose(perm).reshape(chi_l, dim, chi_r)
        theta = np.einsum("pq,aqb->apb", matrix, theta)
        # Undo the ordering back to site-major for re-splitting.
        theta = theta.reshape((chi_l,) + (2,) * k + (chi_r,))
        theta = theta.transpose(perm).reshape(chi_l, dim, chi_r)
        # Split back into k sites by sequential SVD.
        tensors: list[np.ndarray] = []
        remainder = theta
        for _ in range(k - 1):
            chi_left = remainder.shape[0]
            rest_dim = remainder.shape[1] // 2
            m = remainder.reshape(chi_left * 2, rest_dim * remainder.shape[2])
            u, s, vh = _svd(m)
            keep, discarded = _truncation_rank(s, self.max_bond)
            self.truncation_error += discarded
            u, s, vh = u[:, :keep], s[:keep], vh[:keep]
            tensors.append(u.reshape(chi_left, 2, keep))
            remainder = (np.diag(s) @ vh).reshape(keep, rest_dim, remainder.shape[2])
        tensors.append(remainder)
        for offset, tensor in enumerate(tensors):
            self._sites[block[0] + offset] = tensor


def _svd(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Thin SVD of one split, retried with LAPACK's QR-iteration driver.

    NumPy's driver (gesdd, divide and conquer) can report "SVD did not
    converge" on finite, well-conditioned blocks; gesvd is slower but
    converges on them.
    """
    try:
        return np.linalg.svd(m, full_matrices=False)
    except np.linalg.LinAlgError:
        from scipy.linalg import svd

        return svd(m, full_matrices=False, lapack_driver="gesvd")


def _truncation_rank(
    singular_values: np.ndarray, max_bond: int | None
) -> tuple[int, float]:
    """``(keep, discarded_weight)`` for one SVD split.

    ``keep`` is the retained rank (numerically nonzero singular values,
    capped at ``max_bond``); ``discarded_weight`` is the squared Schmidt
    weight of everything dropped — the quantity
    :attr:`MatrixProductState.discarded_weight` accumulates.
    """
    keep = int(np.sum(singular_values > 1e-12))
    keep = max(keep, 1)
    if max_bond is not None:
        keep = min(keep, max_bond)
    discarded = float(np.sum(singular_values[keep:] ** 2))
    return keep, discarded


def _dense_operator(gate: Gate) -> np.ndarray:
    """The gate as a dense matrix over its sorted operand qubits.

    Little-endian within the operand list: sorted operand ``j`` is bit
    ``j`` of the operator's index.
    """
    qubits = sorted(gate.qubits)
    k = len(qubits)
    dim = 1 << k
    index_of = {q: j for j, q in enumerate(qubits)}
    u2 = gate.matrix()
    target_bit = index_of[gate.target]
    op = np.zeros((dim, dim), dtype=complex)
    for basis in range(dim):
        fire = all(
            (basis >> index_of[c.qubit]) & 1 == c.value for c in gate.controls
        )
        if not fire:
            op[basis, basis] = 1.0
            continue
        b = (basis >> target_bit) & 1
        partner = basis ^ (1 << target_bit)
        # column `basis` maps |basis> -> u[.,b] combinations
        if b == 0:
            op[basis, basis] += u2[0, 0]
            op[partner, basis] += u2[1, 0]
        else:
            op[partner, basis] += u2[0, 1]
            op[basis, basis] += u2[1, 1]
    return op


def simulate_mps(
    circuit: QuantumCircuit,
    max_bond: int | None = None,
    initial_bits: int = 0,
    norm_tolerance: float | None = DEFAULT_NORM_TOLERANCE,
) -> MatrixProductState:
    """Run a circuit on the MPS simulator.

    Parameters
    ----------
    circuit:
        Any circuit from the IR (all gate kinds supported).
    max_bond:
        Optional bond-dimension cap (exact when ``None``; the qTKP
        oracle needs at most ``2^n`` for an n-vertex graph).  A
        gate-fault injector's forced-truncation fault composes here via
        :meth:`repro.resilience.GateFaultInjector.mps_bond_cap`.
    initial_bits:
        Basis-state input as a little-endian mask.
    norm_tolerance:
        Forwarded to :class:`MatrixProductState`; probability queries on
        the returned state raise :class:`MPSNormError` when truncation
        has discarded more norm than this.
    """
    mps = MatrixProductState(
        circuit.num_qubits, max_bond=max_bond, norm_tolerance=norm_tolerance
    )
    for i in range(circuit.num_qubits):
        if (initial_bits >> i) & 1:
            mps._apply_single(np.array([[0, 1], [1, 0]], dtype=complex), i)
    for gate in circuit:
        mps.apply_gate(gate)
    return mps
