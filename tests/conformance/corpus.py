"""The conformance corpus and the checks every route must pass.

In-process routes draw graphs from :func:`graphs` (hypothesis).  Routes
that pay a process start per answer (CLI, service, gateway) run over
:data:`SEEDED`, a fixed list of six instances; the first needs three
threshold probes, so its journal and event stream are non-trivial.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np
from hypothesis import strategies as st

from repro.core import qmkp
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


@lru_cache(maxsize=256)
def optimum(graph: Graph, k: int) -> int:
    return len(maximum_kplex(graph, k).subset)


@lru_cache(maxsize=256)
def default_answer(graph: Graph, k: int, seed: int):
    """The in-process default: ``qmkp`` with a fresh ``default_rng(seed)``."""
    return qmkp(graph, k, rng=np.random.default_rng(seed))


def certify(graph: Graph, k: int, subset) -> None:
    """The checks every route's answer must pass."""
    subset = frozenset(subset)
    assert len(subset) == optimum(graph, k)
    assert is_kplex(graph, subset, k)


def check_qmkp(graph: Graph, k: int, seed: int, subset, gate_units, oracle_calls):
    """Certify a qMKP answer and hold it to the in-process default."""
    certify(graph, k, subset)
    default = default_answer(graph, k, seed)
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
