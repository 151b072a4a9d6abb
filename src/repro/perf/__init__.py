"""Performance engine: level-by-level k-plex mask enumeration, marked-set
caching, and the sparse incremental annealing kernels.

Substrate layer (like ``repro.graphs``): imported by ``repro.core``,
``repro.grover``, and ``repro.annealing``; imports nothing above
``repro.graphs`` itself.
"""

from .anneal import (
    CSRQuadratic,
    SweepPlan,
    build_sweep_plan,
    fields_energies,
    fields_energies_t,
    local_fields,
    refresh_fields_t,
    sa_shard_reads,
    sa_sweep,
    tabu_descend,
)
from .bitparallel import (
    MAX_VERTICES,
    kplex_levels,
    kplex_masks,
    popcount_u64,
)
from .cache import MarkedSetCache, MarkedSetTable, PredicateMaskCache
from .kernels import KernelBackend, available_backends, resolve as resolve_kernel

__all__ = [
    "MAX_VERTICES",
    "CSRQuadratic",
    "KernelBackend",
    "MarkedSetCache",
    "MarkedSetTable",
    "PredicateMaskCache",
    "SweepPlan",
    "available_backends",
    "resolve_kernel",
    "build_sweep_plan",
    "fields_energies",
    "fields_energies_t",
    "kplex_levels",
    "kplex_masks",
    "local_fields",
    "popcount_u64",
    "refresh_fields_t",
    "sa_shard_reads",
    "sa_sweep",
    "tabu_descend",
]
