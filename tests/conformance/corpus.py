"""The conformance corpus and the checks every route must pass.

In-process routes draw graphs from :func:`graphs` (hypothesis).  Routes
that pay a process start per answer (CLI, service, gateway) run over
:data:`SEEDED`, a fixed list of six instances; the first needs three
threshold probes, so its journal and event stream are non-trivial.
"""

from __future__ import annotations

import inspect
import json
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np
from hypothesis import strategies as st

from repro.core import qmkp, qtkp
from repro.datasets import figure1_graph
from repro.graphs import Graph, gnm_random_graph, read_edge_list, write_edge_list
from repro.kplex import is_kplex, maximum_kplex


@st.composite
def graphs(draw, max_n=9):
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return Graph(n, edges)


@dataclass(frozen=True)
class Instance:
    name: str
    graph: Graph
    k: int
    seed: int


SEEDED = [
    Instance("gnm7-three-probes", gnm_random_graph(7, 10, seed=1), 2, 7),
    Instance("figure1", figure1_graph(), 2, 7),
    Instance("gnm11-ladder", gnm_random_graph(11, 28, seed=7), 2, 123),
    Instance("gnm9-k3", gnm_random_graph(9, 20, seed=3), 3, 11),
    Instance("gnm10-cliques", gnm_random_graph(10, 25, seed=2), 1, 3),
    Instance("gnm8-sparse", gnm_random_graph(8, 9, seed=5), 2, 5),
]
NAMES = [inst.name for inst in SEEDED]


#: Draws whose in-process default falls short of the optimum because a
#: qTKP probe missed every attempt: K5 with k = 1 (M = 16 of N = 32
#: marked states, so each measurement succeeds with probability 1/2)
#: and two isolated vertices with k = 1 (M = 2 of 4).
BOUNDED_ERROR_MISSES = [
    (Graph(5, [(u, v) for u in range(5) for v in range(u + 1, 5)]), 1, 1341),
    (Graph(2, []), 1, 126),
]

#: Measurements a qTKP probe takes before it reports no solution (the
#: default, which ``qmkp`` uses).
MAX_ATTEMPTS = inspect.signature(qtkp).parameters["max_attempts"].default


@lru_cache(maxsize=256)
def optimum(graph: Graph, k: int) -> int:
    return len(maximum_kplex(graph, k).subset)


@lru_cache(maxsize=256)
def default_answer(graph: Graph, k: int, seed: int):
    """The in-process default: ``qmkp`` with a fresh ``default_rng(seed)``."""
    return qmkp(graph, k, rng=np.random.default_rng(seed))


def bounded_error_miss(probes) -> bool:
    """Whether a qTKP probe spent every attempt while solutions existed.

    qTKP is bounded-error: each measurement finds a marked state with
    probability below one, so a probe can miss M > 0 solutions on all
    of its attempts, and qMKP's search then settles below the optimum.
    """
    return any(
        not probe.found and probe.num_marked > 0
        and probe.attempts == MAX_ATTEMPTS
        for probe in probes
    )


def certify(graph: Graph, k: int, subset, probes) -> None:
    """The checks every route's answer must pass.

    The answer is a k-plex no larger than the optimum, and it is the
    optimum unless ``probes`` (the in-process default's qTKP probes)
    record a bounded-error miss.
    """
    subset = frozenset(subset)
    assert is_kplex(graph, subset, k)
    assert len(subset) <= optimum(graph, k)
    if not bounded_error_miss(probes):
        assert len(subset) == optimum(graph, k)


def check_qmkp(graph: Graph, k: int, seed: int, subset, gate_units, oracle_calls):
    """Certify a qMKP answer and hold it to the in-process default."""
    default = default_answer(graph, k, seed)
    certify(graph, k, subset, default.probes)
    assert frozenset(subset) == default.subset
    assert gate_units == default.gate_units
    assert oracle_calls == default.oracle_calls


@dataclass(frozen=True)
class OnDisk:
    """A seeded instance as the file routes see it: written, read back."""

    instance: Instance
    path: Path
    graph: Graph
    labels: dict

    def ids(self, vertices) -> frozenset[int]:
        """Internal vertex ids of a route's label-space answer."""
        inverse = {label: v for v, label in self.labels.items()}
        return frozenset(inverse[label] for label in vertices)

    def check(self, vertices, gate_units, oracle_calls) -> None:
        inst = self.instance
        check_qmkp(
            self.graph, inst.k, inst.seed, self.ids(vertices),
            gate_units, oracle_calls,
        )

    def check_record(self, record: dict) -> None:
        """A service job's result record: certified and receipted."""
        assert record["verified"] is True
        answer = record["answer"]
        assert answer["size"] == len(answer["vertices"])
        self.check(answer["vertices"], answer["gate_units"], answer["oracle_calls"])
        receipt = json.loads(Path(record["receipt"]).read_text())
        assert receipt["ledger"]["verified"] is True
        assert receipt["answer"] == answer


def write_corpus(directory: Path) -> list[OnDisk]:
    out = []
    for inst in SEEDED:
        path = directory / f"{inst.name}.edges"
        write_edge_list(inst.graph, path)
        graph, labels = read_edge_list(path)
        out.append(OnDisk(inst, path, graph, labels))
    return out
