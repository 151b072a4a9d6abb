"""Grover search with an unknown number of solutions (BBHT).

qTKP needs the solution count ``M`` to fix its iteration schedule; the
paper obtains it from quantum counting.  The classic alternative is the
exponential schedule of Boyer, Brassard, Hoyer & Tapp (1998), which
needs no count at all: repeatedly pick a random iteration count below a
growing ceiling, run, measure, verify.  The expected oracle cost stays
``O(sqrt(N / M))`` even though ``M`` is never learned.

The driver below runs against :class:`repro.grover.PhaseOracleGrover`
(so the measurement statistics are exact) while only using ``M`` the
way hardware would: through measurement outcomes and classical
verification.

For noisy executions the driver takes two hooks rather than importing
the resilience layer (arrows point down): ``execute`` replaces the
engine call (so :class:`repro.resilience.GateFaultInjector` can raise
transient faults and dampen success probabilities) and ``corrupt``
post-processes each measured mask (readout bit-flips).  When noise can
defeat a whole schedule, ``restarts`` re-runs the exponential schedule
from a fresh ceiling before the instance is declared unsolvable — each
restart is recorded as a ``gate.retry`` span for the run ledger.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .simulator import GroverRun, PhaseOracleGrover

__all__ = ["BBHTResult", "bbht_search"]

#: The ceiling growth factor; BBHT prove any 1 < c < 4/3 works.
_GROWTH = 1.25


@dataclass(frozen=True)
class BBHTResult:
    """Outcome of one BBHT run.

    Attributes
    ----------
    mask:
        The measured solution basis state, or ``None`` on failure.
    found:
        Whether a verified solution was measured.
    oracle_calls:
        Total Grover iterations executed across all rounds and restarts.
    rounds:
        Number of run/measure/verify rounds.
    restarts_used:
        Schedule restarts consumed (0 = first schedule succeeded or no
        restart budget was given).
    rejected:
        Measured candidates the verification step refused — unlucky
        collapses and injected readout corruption alike.
    """

    mask: int | None
    found: bool
    oracle_calls: int
    rounds: int
    restarts_used: int = 0
    rejected: int = 0


def bbht_search(
    engine: PhaseOracleGrover,
    rng: np.random.Generator | int | None = None,
    max_oracle_calls: int | None = None,
    restarts: int = 0,
    execute: Callable[[PhaseOracleGrover, int], GroverRun] | None = None,
    corrupt: Callable[[int], int] | None = None,
    tracer=None,
) -> BBHTResult:
    """Search without knowing ``M`` via the BBHT exponential schedule.

    Parameters
    ----------
    engine:
        A prepared phase-oracle Grover engine (its marked set plays the
        role of the hardware oracle; this driver never reads
        ``engine.num_marked``).
    max_oracle_calls:
        Per-schedule abort threshold; defaults to ``4 * ceil(sqrt(N))``
        plus slack, after which the schedule is exhausted (the correct
        verdict when ``M = 0``, reached with certainty).
    restarts:
        How many times an exhausted schedule may restart from a fresh
        ceiling before the instance is declared unsolvable.  Noiseless
        schedules only exhaust when ``M = 0``, so the default is 0;
        fault-injected runs pass a budget here.
    execute:
        Replacement for ``engine.run`` (fault injection hook); must
        return a :class:`~repro.grover.simulator.GroverRun`.
    corrupt:
        Post-measurement hook applied to each measured mask.
    tracer:
        Optional :class:`repro.obs.Tracer`; each restart opens a
        ``gate.retry`` span (kind ``"bbht_restart"``).
    """
    rng = np.random.default_rng(rng)
    run_engine = execute if execute is not None else (
        lambda eng, iterations: eng.run(iterations)
    )
    n_states = 1 << engine.num_qubits
    if max_oracle_calls is None:
        max_oracle_calls = int(6 * np.ceil(np.sqrt(n_states))) + 12
    sqrt_n = float(np.sqrt(n_states))
    oracle_calls = 0
    rounds = 0
    rejected = 0
    # Rounds are bounded too: zero-iteration draws cost no oracle calls
    # but each round still measures, and an M = 0 instance must halt.
    max_rounds = 4 * max(max_oracle_calls, 1)
    for schedule in range(restarts + 1):
        ceiling = 1.0
        schedule_calls = 0
        schedule_rounds = 0
        while schedule_calls < max_oracle_calls and schedule_rounds < max_rounds:
            rounds += 1
            schedule_rounds += 1
            iterations = int(rng.integers(0, int(np.ceil(ceiling))))
            run = run_engine(engine, iterations)
            oracle_calls += iterations
            schedule_calls += iterations
            mask = run.measure_once(rng)
            if corrupt is not None:
                mask = corrupt(mask)
            if mask in engine.marked:
                return BBHTResult(
                    mask, True, oracle_calls, rounds, schedule, rejected
                )
            rejected += 1
            ceiling = min(_GROWTH * ceiling, sqrt_n)
        if schedule < restarts and tracer is not None:
            with tracer.span(
                "gate.retry", kind="bbht_restart", restart=schedule + 1
            ):
                tracer.add("gate_retries", 1)
    return BBHTResult(None, False, oracle_calls, rounds, restarts, rejected)
