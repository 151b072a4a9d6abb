"""CLI routes: ``qmkp solve --solver qmkp`` and ``qmkp watch --check``.

Both run through :func:`repro.cli.main` on the seeded corpus files, so
the answers are the ones an operator reads, in file labels.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.dynamic import DynamicGraph, apply_labelled_edit, parse_edits

from .corpus import NAMES, SEEDED, check_qmkp, write_corpus


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    return write_corpus(tmp_path_factory.mktemp("corpus"))


@pytest.mark.parametrize("index", range(len(SEEDED)), ids=NAMES)
def test_solve(corpus, index, tmp_path, capsys):
    disk = corpus[index]
    inst = disk.instance
    ledger_path = tmp_path / "ledger.json"
    rc = main([
        "solve", str(disk.path), "-k", str(inst.k), "--solver", "qmkp",
        "--seed", str(inst.seed), "--trace", str(ledger_path),
    ])
    out = capsys.readouterr().out.splitlines()
    assert rc == 0
    vertices = json.loads(out[-1].removeprefix("vertices: "))
    assert out[-2] == f"maximum {inst.k}-plex size: {len(vertices)}"
    ledger = json.loads(ledger_path.read_text())
    assert ledger["verified"]
    totals = ledger["totals"]
    disk.check(vertices, totals["gate_units"], totals["oracle_calls"])


def _edit_script(disk) -> str:
    """Delete an edge, add a non-edge, add a vertex and wire it in."""
    graph, labels = disk.graph, disk.labels
    edges = set(graph.edges)
    u, v = min(edges)
    a, b = next(
        (a, b)
        for a in range(graph.num_vertices)
        for b in range(a + 1, graph.num_vertices)
        if (a, b) not in edges
    )
    fresh = max(labels.values()) + 1
    return (
        f"del {labels[u]} {labels[v]}\n"
        f"add {labels[a]} {labels[b]}\n"
        "addv\n"
        f"add {fresh} {labels[u]}\n"
    )


@pytest.mark.parametrize("index", range(len(SEEDED)), ids=NAMES)
def test_watch_check(corpus, index, tmp_path, capsys):
    disk = corpus[index]
    inst = disk.instance
    script = _edit_script(disk)
    edits_path = tmp_path / "edits.txt"
    edits_path.write_text(script)
    out_path = tmp_path / "steps.json"
    rc = main([
        "watch", str(disk.path), str(edits_path), "-k", str(inst.k),
        "--seed", str(inst.seed), "--check", "--out", str(out_path),
    ])
    capsys.readouterr()
    assert rc == 0  # --check: every step matched its cold in-process solve
    steps = json.loads(out_path.read_text())["steps"]
    edits = parse_edits(script)
    assert len(steps) == 1 + len(edits)

    # Replay the script, certifying each step on the graph it solved.
    graph = DynamicGraph(disk.graph)
    labels = dict(disk.labels)
    for i, step in enumerate(steps):
        if i:
            apply_labelled_edit(graph, edits[i - 1], labels)
        inverse = {label: v for v, label in labels.items()}
        assert step["check"] == "ok"
        check_qmkp(
            graph.snapshot(), inst.k, (inst.seed, i),
            {inverse[label] for label in step["vertices"]},
            step["gate_units"], step["oracle_calls"],
        )
