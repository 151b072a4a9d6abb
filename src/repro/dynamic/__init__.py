"""Dynamic graphs and incremental re-solving.

Streaming layer above ``repro.core``: a mutable
:class:`~repro.dynamic.DynamicGraph` journals edge/vertex edits, and an
:class:`~repro.dynamic.IncrementalSolver` session re-solves the maximum
k-plex after each mutation batch, byte-identical to a cold solve of
each post-edit graph, and (optionally) carries incumbents/samplesets
across steps.  See :mod:`repro.dynamic.session` for the reuse channels
and their identity guarantees.
"""

from .edits import (
    EDIT_OPS,
    Edit,
    apply_labelled_edit,
    format_edits,
    parse_edits,
    read_edits,
)
from .graph import DynamicGraph
from .session import IncrementalSolver, StepResult, surviving_kplex

__all__ = [
    "EDIT_OPS",
    "DynamicGraph",
    "Edit",
    "IncrementalSolver",
    "StepResult",
    "apply_labelled_edit",
    "format_edits",
    "parse_edits",
    "read_edits",
    "surviving_kplex",
]
