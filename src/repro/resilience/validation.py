"""Sampleset validation and quarantine.

Samplers can hand back rows that are not usable answers: bits outside
the binary domain, variables missing from the assignment, or energies
that are non-finite or inconsistent with the model.  Downstream code
(k-plex decode + repair in :mod:`repro.core.qamkp`) assumes none of
that, so every sampler-backed solve routes its sample set through
:func:`validate_sampleset` first.

The policy distinguishes *repairable* from *quarantinable* damage:

* a wrong or non-finite **energy** on an otherwise well-formed row is
  repaired by recomputing against the clean model (energies are
  bookkeeping, never trusted from hardware — see
  ``docs/architecture.md``);
* a malformed **assignment** (missing variable, non-binary value) has
  no trustworthy interpretation and the row is quarantined.

An empty post-validation set is the caller's signal to treat the whole
call as failed (the retry layer maps it to a ``all_quarantined`` fault).

Rows the samplers hold as integer matrix rows over the model's variable
order (:func:`~repro.annealing.sampleset.matrix_rows`) are checked in
one batched pass — a 0/1 domain check plus one ``bqm.energies`` call,
which the CSR layout makes bitwise equal to the scalar ``bqm.energy`` —
with the same verdicts the per-row pass gives every other row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..annealing.bqm import BinaryQuadraticModel
from ..annealing.sampleset import Sample, SampleSet, matrix_rows

__all__ = ["ValidationReport", "validate_sampleset"]


@dataclass
class ValidationReport:
    """Outcome of one sampleset validation pass."""

    total_rows: int = 0
    kept_rows: int = 0
    quarantined_rows: int = 0
    repaired_energies: int = 0
    reasons: dict[str, int] = field(default_factory=dict)

    @property
    def clean(self) -> bool:
        return self.quarantined_rows == 0 and self.repaired_energies == 0

    def _count(self, reason: str) -> None:
        self.reasons[reason] = self.reasons.get(reason, 0) + 1

    def as_dict(self) -> dict[str, object]:
        return {
            "total_rows": self.total_rows,
            "kept_rows": self.kept_rows,
            "quarantined_rows": self.quarantined_rows,
            "repaired_energies": self.repaired_energies,
            "reasons": dict(self.reasons),
        }


def _row_defect(sample: Sample, variables: list) -> str | None:
    """The quarantine reason for a row, or ``None`` if well-formed."""
    assignment = sample.assignment
    for v in variables:
        if v not in assignment:
            return "missing_variable"
        x = assignment[v]
        if isinstance(x, float) and not math.isfinite(x):
            return "non_finite_value"
        if x not in (0, 1):
            return "non_binary_value"
    return None


def _matrix_energies(
    samples: list[Sample], bqm: BinaryQuadraticModel
) -> dict[int, float]:
    """Recomputed energies of the matrix rows whose bits are all 0/1.

    Keyed by sample index; a matrix row outside the binary domain is
    left out, so the per-row pass names its defect.
    """
    rows = matrix_rows(samples, bqm.variables)
    if not rows:
        return {}
    index = np.fromiter(rows, dtype=np.int64, count=len(rows))
    states = np.stack(list(rows.values()))
    binary = ((states == 0) | (states == 1)).all(axis=1)
    energies = bqm.energies(states[binary])
    return dict(zip(index[binary].tolist(), energies.tolist()))


def validate_sampleset(
    sampleset: SampleSet,
    bqm: BinaryQuadraticModel,
    energy_tol: float = 1e-6,
) -> tuple[SampleSet, ValidationReport]:
    """Return ``(clean_sampleset, report)``.

    Rows with malformed assignments are dropped; rows whose reported
    energy is non-finite or off the recomputed value by more than
    ``energy_tol`` are kept with the energy repaired.  The returned set
    preserves ``info`` and re-sorts by (repaired) energy.
    """
    report = ValidationReport()
    variables = bqm.variables
    batched = _matrix_energies(sampleset.samples, bqm)
    kept: list[Sample] = []
    for i, sample in enumerate(sampleset.samples):
        report.total_rows += sample.num_occurrences
        true_energy = batched.get(i)
        if true_energy is None:
            defect = _row_defect(sample, variables)
            if defect is not None:
                report.quarantined_rows += sample.num_occurrences
                report._count(defect)
                continue
            true_energy = bqm.energy(sample.assignment)
        energy = sample.energy
        if not math.isfinite(energy) or abs(energy - true_energy) > energy_tol:
            report.repaired_energies += sample.num_occurrences
            report._count(
                "non_finite_energy"
                if not math.isfinite(energy)
                else "inconsistent_energy"
            )
            sample = Sample(sample.assignment, true_energy, sample.num_occurrences)
        kept.append(sample)
        report.kept_rows += sample.num_occurrences
    out = SampleSet(kept, dict(sampleset.info))
    if not report.clean:
        out.info["validation"] = report.as_dict()
    return out, report
