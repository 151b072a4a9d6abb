"""The qTKP oracle: "is this subset a k-cplex of size >= T?".

This assembles the paper's four circuit blocks (Section III) over the
*complement* graph:

1. **graph encoding** (Fig. 6 box A) — one edge qubit per complement
   edge, activated by a Toffoli when both endpoints are selected;
2. **degree counting** (Fig. 6 box B, "control-a") — per-vertex popcount
   of its activated incident edge qubits into a counter register;
3. **degree comparison** (Fig. 10 box A, "control-c") — per-vertex flag
   ``d_i = [c_i <= k - 1]`` and the AND of all flags into the ``cplex``
   qubit (box B).  (The paper's prose says ``c_i < k - 1``; the k-cplex
   definition requires ``<=``, which is what we implement.);
4. **size determination** (Fig. 10 / Fig. 11) — popcount of the vertex
   qubits and the threshold check ``size >= T``, then the final Toffoli
   from ``(cplex, size_ok)`` onto the oracle qubit.

The complete phase oracle is ``U_check``, the marking Toffoli, then
``U_check^dag`` — so every ancilla returns to |0> and the net effect on
the vertex register is a phase flip on satisfying subsets.  Because
``U_check`` is X-family only, the full circuit (hundreds of qubits for
n = 10 graphs) is verified bit-exactly by
:func:`repro.quantum.classical.classical_simulate`.

qTKP charges :func:`price_oracle`'s closed-form counts instead of
building the circuit, which stays the reference they are tested against.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from ..graphs import Graph
from ..quantum import (
    QuantumCircuit,
    QubitAllocator,
    classical_simulate,
    compare_geq_const,
    compare_leq_const,
    popcount,
)

__all__ = ["OracleCosts", "KCplexOracle", "price_oracle"]

#: Section labels used for component-wise gate accounting (Table IV).
COMPONENT_ENCODE = "encode"
COMPONENT_DEGREE_COUNT = "degree_count"
COMPONENT_DEGREE_COMPARE = "degree_compare"
COMPONENT_SIZE_CHECK = "size_check"
COMPONENT_MARK = "mark"


@dataclass(frozen=True)
class OracleCosts:
    """Gate counts per oracle component for one full phase-oracle call.

    ``U_check`` and ``U_check^dag`` both contribute, so every component
    is counted twice except the single marking Toffoli.
    """

    encode: int
    degree_count: int
    degree_compare: int
    size_check: int
    mark: int

    @property
    def total(self) -> int:
        return (
            self.encode
            + self.degree_count
            + self.degree_compare
            + self.size_check
            + self.mark
        )

    def shares(self) -> dict[str, float]:
        """Fractional share of each *checking* component (Table IV rows).

        The paper's Table IV splits the oracle runtime across degree
        count, degree comparison, and size determination; encoding is
        part of state handling and the mark is a single gate, so shares
        are taken over the three checking components.
        """
        base = self.degree_count + self.degree_compare + self.size_check
        if base == 0:
            return {"degree_count": 0.0, "degree_compare": 0.0, "size_check": 0.0}
        return {
            "degree_count": self.degree_count / base,
            "degree_compare": self.degree_compare / base,
            "size_check": self.size_check / base,
        }


def price_oracle(
    complement_degrees: Sequence[int], k: int, threshold: int
) -> OracleCosts:
    """``KCplexOracle(complement, k, threshold).component_costs()`` in
    closed form, without building the circuit (compact adder).

    ``complement_degrees[v]`` is ``d_v = n - 1 - deg(v)`` in the input
    graph; ``n`` is its length.  Forward counts: one Toffoli per
    complement edge; ``d_v`` increments of a ``bitlen(d_v)``-bit
    counter at 2 gates per bit; per vertex one MCX per 0 bit of
    ``k - 1`` plus an X, or a lone X where ``d_v`` cannot exceed
    ``k - 1``, then the AND into ``cplex``; ``n`` increments of the
    size counter, then one MCX per 1 bit of ``T`` plus an X.  O(n).
    """
    n = len(complement_degrees)
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not 0 <= threshold <= n:
        raise ValueError(f"threshold must be in [0, n={n}], got {threshold}")
    limit = k - 1
    degree_count = 0
    degree_compare = 1  # the AND of the flags into ``cplex``
    for d in complement_degrees:
        width = d.bit_length()
        degree_count += 2 * width * d
        if d and limit < (1 << width):
            degree_compare += width - limit.bit_count() + 1
        else:
            degree_compare += 1
    size_check = 2 * n * max(1, n.bit_length()) + threshold.bit_count() + 1
    # Doubled for U_check and its inverse.
    return OracleCosts(
        encode=2 * (sum(complement_degrees) // 2),
        degree_count=2 * degree_count,
        degree_compare=2 * degree_compare,
        size_check=2 * size_check,
        mark=1,
    )


class KCplexOracle:
    """Oracle circuit for "subset is a k-cplex of ``complement`` with size >= T".

    Parameters
    ----------
    complement:
        The complement graph ``G-bar`` (build with ``graph.complement()``).
    k:
        The plex parameter; members may have at most ``k - 1``
        complement-neighbours inside the subset.
    threshold:
        Minimum subset size ``T`` (0 accepts any size).

    Notes
    -----
    The object exposes three consistent views of the same function:

    * :meth:`predicate` — direct classical evaluation from the graph
      (used by the phase-oracle Grover backend);
    * :meth:`classical_eval` — bit-level execution of the constructed
      ``U_check`` circuit (used to validate the circuit itself);
    * :meth:`phase_oracle_circuit` — the full compute/mark/uncompute
      gate list (used for gate accounting and tiny-n dense simulation).
    """

    def __init__(
        self,
        complement: Graph,
        k: int,
        threshold: int,
        adder: str = "compact",
    ) -> None:
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if threshold < 0:
            raise ValueError(f"threshold must be >= 0, got {threshold}")
        if threshold > complement.num_vertices:
            raise ValueError(
                f"threshold {threshold} exceeds n={complement.num_vertices}"
            )
        if adder not in ("compact", "full_adder"):
            raise ValueError(f"adder must be 'compact' or 'full_adder', got {adder!r}")
        self.complement = complement
        self.k = k
        self.threshold = threshold
        self.adder = adder
        self._build()

    # ------------------------------------------------------------------
    # Circuit construction
    # ------------------------------------------------------------------
    def _build(self) -> None:
        n = self.complement.num_vertices
        qc = QuantumCircuit()
        vertex_reg = qc.add_register("v", n)
        edges = sorted(self.complement.edges)
        edge_reg = qc.add_register("e", len(edges))
        alloc = QubitAllocator(qc)

        # --- 1. graph encoding -----------------------------------------
        qc.set_label(COMPONENT_ENCODE)
        edge_qubit: dict[tuple[int, int], int] = {}
        for idx, (u, w) in enumerate(edges):
            eq = edge_reg[idx]
            edge_qubit[(u, w)] = eq
            qc.ccx(vertex_reg[u], vertex_reg[w], eq)

        # --- 2. degree counting ----------------------------------------
        qc.set_label(COMPONENT_DEGREE_COUNT)
        degree_counters: dict[int, list[int]] = {}
        for v in range(n):
            incident = [
                edge_qubit[(min(v, w), max(v, w))]
                for w in sorted(self.complement.neighbors(v))
            ]
            if incident:
                degree_counters[v] = popcount(qc, incident, alloc, adder=self.adder)

        # --- 3. degree comparison ---------------------------------------
        qc.set_label(COMPONENT_DEGREE_COMPARE)
        flags: list[int] = []
        for v in range(n):
            counter = degree_counters.get(v)
            if counter is None or self.k - 1 >= (1 << len(counter)):
                # Complement degree can never exceed k - 1: always passes.
                flag = alloc.take(1, f"d{v}")[0]
                qc.x(flag)
            else:
                flag = compare_leq_const(qc, counter, self.k - 1, alloc)
            flags.append(flag)
        cplex_qubit = alloc.take(1, "cplex")[0]
        if flags:
            qc.mcx(flags, cplex_qubit)
        else:
            qc.x(cplex_qubit)

        # --- 4. size determination ---------------------------------------
        qc.set_label(COMPONENT_SIZE_CHECK)
        if n:
            size_counter = popcount(qc, vertex_reg.qubits, alloc, adder=self.adder)
        else:
            size_counter = alloc.take(1, "size")
        if self.threshold == 0:
            size_ok = alloc.take(1, "size_ok")[0]
            qc.x(size_ok)
        else:
            size_ok = compare_geq_const(qc, size_counter, self.threshold, alloc)
        qc.set_label(None)

        self._u_check = qc
        self._vertex_reg = vertex_reg
        self._cplex_qubit = cplex_qubit
        self._size_ok_qubit = size_ok

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return self.complement.num_vertices

    @property
    def num_qubits(self) -> int:
        """Qubits of ``U_check`` (the phase oracle adds one for |O>)."""
        return self._u_check.num_qubits

    @property
    def u_check(self) -> QuantumCircuit:
        """The forward checking circuit (compute only, no mark)."""
        return self._u_check

    @property
    def cplex_qubit(self) -> int:
        return self._cplex_qubit

    @property
    def size_ok_qubit(self) -> int:
        return self._size_ok_qubit

    def predicate(self, mask: int) -> bool:
        """Direct evaluation: is the subset a k-cplex of size >= T?

        Works on the raw bitmask via :meth:`Graph.degree_in_mask` — no
        per-call ``frozenset`` materialisation.
        """
        if mask < 0 or mask >> self.complement.num_vertices:
            raise ValueError(
                f"bitmask {mask} out of range for n={self.complement.num_vertices}"
            )
        if mask.bit_count() < self.threshold:
            return False
        limit = self.k - 1
        remaining = mask
        while remaining:
            v = (remaining & -remaining).bit_length() - 1
            if self.complement.degree_in_mask(v, mask) > limit:
                return False
            remaining &= remaining - 1
        return True

    def classical_eval(self, mask: int) -> bool:
        """Run the actual ``U_check`` gate list on a basis state.

        Returns the AND of the ``cplex`` and ``size_ok`` flags — exactly
        the bit the marking Toffoli reads.
        """
        out = classical_simulate(self._u_check, mask)
        return bool(out >> self._cplex_qubit & 1) and bool(
            out >> self._size_ok_qubit & 1
        )

    def uncompute_is_clean(self, mask: int) -> bool:
        """Check ``U_check^dag U_check`` restores the input exactly."""
        forward = classical_simulate(self._u_check, mask)
        back = classical_simulate(self._u_check.inverse(), forward)
        return back == mask

    def phase_oracle_circuit(self) -> QuantumCircuit:
        """``U_check`` + marking Toffoli onto |O> + ``U_check^dag``.

        The oracle qubit is the last one; prepared in (|0>-|1>)/sqrt(2)
        it turns the Toffoli into the sign flip of Grover's step 2.
        """
        width = self._u_check.num_qubits + 1
        oracle_qubit = width - 1
        qc = QuantumCircuit(width)
        qc.mirror_registers(self._u_check)
        qc.extend(self._u_check)
        qc.set_label(COMPONENT_MARK)
        qc.ccx(self._cplex_qubit, self._size_ok_qubit, oracle_qubit)
        qc.set_label(None)
        qc.extend(self._u_check.inverse())
        return qc

    def component_costs(self) -> OracleCosts:
        """Gate counts per component for one full phase-oracle call."""
        forward = self._u_check.labelled_gate_counts()
        return OracleCosts(
            encode=2 * forward.get(COMPONENT_ENCODE, 0),
            degree_count=2 * forward.get(COMPONENT_DEGREE_COUNT, 0),
            degree_compare=2 * forward.get(COMPONENT_DEGREE_COMPARE, 0),
            size_check=2 * forward.get(COMPONENT_SIZE_CHECK, 0),
            mark=1,
        )
