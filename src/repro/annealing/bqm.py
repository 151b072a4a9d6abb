"""Binary quadratic models (QUBO / Ising).

The annealing stack's model type, equivalent in role to D-Wave's
``dimod.BinaryQuadraticModel`` restricted to what the paper needs:
binary (0/1) variables, linear and quadratic coefficients, a constant
offset, energy evaluation (scalar and vectorised), and conversion to
Ising spin form for hardware-style samplers.
"""

from __future__ import annotations

import math
from collections.abc import Hashable, Iterable, Mapping

import numpy as np

from ..perf.anneal import CSRQuadratic

__all__ = ["BinaryQuadraticModel"]

Variable = Hashable


class BinaryQuadraticModel:
    """``E(x) = offset + sum_i h_i x_i + sum_{i<j} J_ij x_i x_j`` over x in {0,1}.

    Variables are arbitrary hashable labels; iteration order is the
    insertion order, which fixes the column order of
    :meth:`to_numpy` and of samplers' state matrices.
    """

    def __init__(
        self,
        linear: Mapping[Variable, float] | None = None,
        quadratic: Mapping[tuple[Variable, Variable], float] | None = None,
        offset: float = 0.0,
    ) -> None:
        self.linear: dict[Variable, float] = {}
        self.quadratic: dict[tuple[Variable, Variable], float] = {}
        self.offset = float(offset)
        self._index: dict[Variable, int] = {}
        self._csr: CSRQuadratic | None = None
        for v, bias in (linear or {}).items():
            self.add_linear(v, bias)
        for (u, v), bias in (quadratic or {}).items():
            self.add_quadratic(u, v, bias)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_variable(self, v: Variable) -> None:
        """Register a variable with zero bias if unseen."""
        if v not in self.linear:
            self._index[v] = len(self.linear)
            self.linear[v] = 0.0
            self._csr = None

    def add_linear(self, v: Variable, bias: float) -> None:
        """Accumulate a linear coefficient."""
        self.add_variable(v)
        self.linear[v] += float(bias)
        self._csr = None

    def add_quadratic(self, u: Variable, v: Variable, bias: float) -> None:
        """Accumulate a quadratic coefficient (u != v; key order-free)."""
        if u == v:
            raise ValueError(
                f"diagonal term ({u},{u}): binary x^2 = x, fold into linear"
            )
        self.add_variable(u)
        self.add_variable(v)
        key = self._key(u, v)
        self.quadratic[key] = self.quadratic.get(key, 0.0) + float(bias)
        self._csr = None

    def add_offset(self, value: float) -> None:
        self.offset += float(value)

    def _key(self, u: Variable, v: Variable) -> tuple[Variable, Variable]:
        # Deterministic unordered pair key by insertion index.
        return (u, v) if self._index[u] < self._index[v] else (v, u)

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    @property
    def variables(self) -> list[Variable]:
        return list(self.linear)

    @property
    def num_variables(self) -> int:
        return len(self.linear)

    @property
    def num_interactions(self) -> int:
        return len(self.quadratic)

    def interaction_graph_edges(self) -> list[tuple[Variable, Variable]]:
        """Variable pairs with non-zero coupling (for embedding)."""
        return [pair for pair, bias in self.quadratic.items() if bias != 0.0]

    def require_finite(self) -> None:
        """Raise ``ValueError`` if any coefficient is NaN or infinite.

        Samplers call this before annealing: a non-finite bias poisons
        every energy and acceptance probability downstream, and failing
        at submission (as real solver APIs do) is the only point where
        the culprit coefficient can still be named.

        The happy path is one vectorised ``isfinite`` over the cached
        CSR arrays; the per-coefficient Python loop runs only on
        failure, where naming the culprit is worth the walk.
        """
        if math.isfinite(self.offset):
            csr = self.to_csr()
            if bool(np.isfinite(csr.h).all()) and bool(
                np.isfinite(csr.pair_vals).all()
            ):
                return
        if not math.isfinite(self.offset):
            raise ValueError(f"non-finite offset {self.offset}")
        for v, bias in self.linear.items():
            if not math.isfinite(bias):
                raise ValueError(f"non-finite linear bias {bias} on {v!r}")
        for (u, v), bias in self.quadratic.items():
            if not math.isfinite(bias):
                raise ValueError(f"non-finite quadratic bias {bias} on ({u!r}, {v!r})")

    # ------------------------------------------------------------------
    # Energy
    # ------------------------------------------------------------------
    def energy(self, sample: Mapping[Variable, int]) -> float:
        """Objective value of one assignment.

        Routed through the same cached CSR arrays as :meth:`energies`,
        so scalar and vectorised evaluation are exactly — bitwise —
        equal on the same assignment.
        """
        csr = self.to_csr()
        x = np.fromiter(
            (sample[v] for v in csr.order),
            dtype=np.float64,
            count=csr.num_variables,
        )
        return float(csr.energies(x[None, :], self.offset)[0])

    def energies(self, states: np.ndarray, order: list[Variable] | None = None) -> np.ndarray:
        """Vectorised energies for a ``(num_samples, num_vars)`` 0/1 array.

        The default (insertion-order) layout hands the rows, uncast, to
        the cached CSR arrays' blocked evaluation
        (:meth:`~repro.perf.anneal.CSRQuadratic.energies`).  A
        caller-supplied permuted ``order`` falls back to the per-term
        path.
        """
        if order is None or list(order) == self.variables:
            return self.to_csr().energies(states, self.offset)
        states = np.asarray(states, dtype=float)
        index = {v: i for i, v in enumerate(order)}
        h = np.zeros(len(order))
        for v, bias in self.linear.items():
            h[index[v]] = bias
        energies = states @ h + self.offset
        for (u, v), bias in self.quadratic.items():
            energies += bias * states[:, index[u]] * states[:, index[v]]
        return energies

    # ------------------------------------------------------------------
    # Conversions
    # ------------------------------------------------------------------
    def to_csr(self) -> CSRQuadratic:
        """The cached sparse view every sampler runs on.

        Returns the symmetric coupling matrix in CSR form plus the
        ``h`` vector, variable ``order``, and upper-triangular pairs
        (see :class:`repro.perf.anneal.CSRQuadratic`).  Built lazily on
        first use and invalidated by any coefficient mutation
        (``add_variable`` / ``add_linear`` / ``add_quadratic``); the
        offset is read live from the model, so ``add_offset`` does not
        invalidate.
        """
        if self._csr is None:
            order = self.variables
            index = self._index
            n = len(order)
            h = np.fromiter(
                (self.linear[v] for v in order), dtype=np.float64, count=n
            )
            m = len(self.quadratic)
            rows = np.empty(m, dtype=np.int64)
            cols = np.empty(m, dtype=np.int64)
            vals = np.empty(m, dtype=np.float64)
            for pos, ((u, v), bias) in enumerate(self.quadratic.items()):
                a, b = index[u], index[v]
                if a > b:
                    a, b = b, a
                rows[pos] = a
                cols[pos] = b
                vals[pos] = bias
            self._csr = CSRQuadratic.from_pairs(
                n, h, rows, cols, vals, order=tuple(order)
            )
        return self._csr

    def to_numpy(self) -> tuple[np.ndarray, np.ndarray, float, list[Variable]]:
        """``(h, J, offset, order)`` with J strictly upper triangular."""
        order = self.variables
        index = {v: i for i, v in enumerate(order)}
        n = len(order)
        h = np.zeros(n)
        j = np.zeros((n, n))
        for v, bias in self.linear.items():
            h[index[v]] = bias
        for (u, v), bias in self.quadratic.items():
            a, b = sorted((index[u], index[v]))
            j[a, b] += bias
        return h, j, self.offset, order

    def to_ising(self) -> tuple[dict[Variable, float], dict[tuple[Variable, Variable], float], float]:
        """Convert to spin variables ``s = 2x - 1`` in {-1, +1}.

        Returns ``(h_spin, J_spin, offset_spin)`` with
        ``E_qubo(x) == E_ising(s)`` for corresponding assignments.
        """
        h_spin: dict[Variable, float] = {v: 0.0 for v in self.linear}
        j_spin: dict[tuple[Variable, Variable], float] = {}
        offset = self.offset
        for v, bias in self.linear.items():
            # x = (s + 1)/2
            h_spin[v] += bias / 2.0
            offset += bias / 2.0
        for (u, v), bias in self.quadratic.items():
            # x_u x_v = (s_u s_v + s_u + s_v + 1) / 4
            j_spin[(u, v)] = j_spin.get((u, v), 0.0) + bias / 4.0
            h_spin[u] += bias / 4.0
            h_spin[v] += bias / 4.0
            offset += bias / 4.0
        return h_spin, j_spin, offset

    @classmethod
    def from_qubo(cls, qubo: Mapping[tuple[Variable, Variable], float], offset: float = 0.0) -> "BinaryQuadraticModel":
        """Build from a {(u, v): bias} dict; diagonal keys become linear."""
        bqm = cls(offset=offset)
        for (u, v), bias in qubo.items():
            if u == v:
                bqm.add_linear(u, bias)
            else:
                bqm.add_quadratic(u, v, bias)
        return bqm

    def copy(self) -> "BinaryQuadraticModel":
        clone = BinaryQuadraticModel(offset=self.offset)
        clone.linear = dict(self.linear)
        clone.quadratic = dict(self.quadratic)
        clone._index = dict(self._index)
        return clone

    def __repr__(self) -> str:
        return (
            f"BinaryQuadraticModel(vars={self.num_variables}, "
            f"interactions={self.num_interactions}, offset={self.offset})"
        )
