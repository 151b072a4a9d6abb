"""HiGHS backend: solving the linearised QUBO with ``scipy.optimize.milp``.

HiGHS is the state-of-the-art open MILP engine bundled with SciPy; it
plays the role the Gurobi Optimizer plays in the paper, including the
runtime-limit knob the cost-vs-runtime curves sweep.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..annealing import BinaryQuadraticModel
from .linearize import LinearizedProblem, linearize_qubo

__all__ = ["MilpResult", "solve_with_highs"]


@dataclass(frozen=True)
class MilpResult:
    """Outcome of a MILP solve.

    ``status`` is ``"optimal"``, ``"time_limit"`` (feasible incumbent
    returned at the deadline), or ``"no_solution"``.
    """

    assignment: dict[object, int] | None
    energy: float | None
    status: str
    backend: str
    runtime_limit_us: float | None = None

    @property
    def found(self) -> bool:
        return self.assignment is not None


def solve_with_highs(
    bqm: BinaryQuadraticModel,
    time_limit_us: float | None = None,
    problem: LinearizedProblem | None = None,
) -> MilpResult:
    """Minimise the QUBO via its linearisation with HiGHS.

    Parameters
    ----------
    bqm:
        The model to minimise.
    time_limit_us:
        Wall-clock budget in microseconds (matching the annealers'
        runtime unit); ``None`` means solve to optimality.
    problem:
        A pre-computed linearisation (rebuilt when omitted).
    """
    # Imported here, not at module load: SciPy's optimize stack is most
    # of ``import repro``'s cost, and only this solver needs it.
    from scipy.optimize import Bounds, LinearConstraint, milp

    lin = problem or linearize_qubo(bqm)
    total = lin.num_x + lin.num_y
    constraints = []
    if lin.a_ub.shape[0]:
        constraints.append(
            LinearConstraint(lin.a_ub, -np.inf, lin.b_ub)
        )
    options: dict[str, object] = {}
    if time_limit_us is not None:
        options["time_limit"] = max(time_limit_us / 1e6, 1e-3)
    result = milp(
        c=lin.c,
        constraints=constraints,
        integrality=lin.integrality,
        bounds=Bounds(np.zeros(total), np.ones(total)),
        options=options,
    )
    if result.x is None:
        return MilpResult(None, None, "no_solution", "highs", time_limit_us)
    assignment = lin.decode(result.x)
    energy = bqm.energy(assignment)
    status = "optimal" if result.status == 0 else "time_limit"
    return MilpResult(assignment, energy, status, "highs", time_limit_us)
