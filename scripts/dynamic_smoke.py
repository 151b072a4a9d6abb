#!/usr/bin/env python
"""Dynamic-graph smoke check: edit-stream re-solves, crashed and cold.

The CI scenario, end to end through the real CLI:

1. ``qmkp watch GRAPH EDITS --check`` solves the whole edit stream
   incrementally **and** re-solves every post-edit graph cold in the
   same process, failing (exit 4) on any non-byte-identical step — the
   incremental-equals-cold acceptance gate;
2. the same stream runs again with ``--checkpoint-dir`` under
   ``QMKP_CRASH_AFTER_PROBES``, SIGKILLing the process mid-stream and
   re-launching until it completes — every casualty must die by
   SIGKILL, at least one crash must actually happen, and the final
   step records must match the cold run's byte for byte once the
   volatile resume/reuse counters are stripped;
3. both runs' ledgers must reconcile (the CLI exits 3 on drift).

Exits nonzero with a diagnostic on any deviation.  No arguments; the
work happens in a temporary directory.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SRC = str(REPO / "src")

def edit_script(graph) -> str:
    """Deterministic mixed stream valid for ``graph``: two deletions,
    two insertions, one vertex add."""
    present = sorted(tuple(sorted(e)) for e in graph.edges)
    n = graph.num_vertices
    absent = sorted(
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if (u, v) not in set(present)
    )
    lines = ["# deterministic mixed stream"]
    lines.append("del {} {}".format(*present[0]))
    lines.append("add {} {}".format(*absent[0]))
    lines.append("addv")
    lines.append("add {} {}".format(*absent[-1]))
    lines.append("del {} {}".format(*present[-1]))
    return "\n".join(lines) + "\n"


#: Per-step fields that legitimately differ between a crash-resumed run
#: and an undisturbed one (resume bookkeeping, not answers or costs).
VOLATILE = ("resumed_probes", "check")


def run_cli(args: list[str], cwd: str, crash_after: int | None = None):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    for hook in ("QMKP_CRASH_AFTER_PROBES", "QMKP_SIGINT_AFTER_PROBES"):
        env.pop(hook, None)
    if crash_after is not None:
        env["QMKP_CRASH_AFTER_PROBES"] = str(crash_after)
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd,
        timeout=300,
    )


def fail(message: str) -> None:
    print(f"FAIL: {message}", file=sys.stderr)
    raise SystemExit(1)


def stable_steps(doc: dict) -> list[dict]:
    return [
        {key: value for key, value in step.items() if key not in VOLATILE}
        for step in doc["steps"]
    ]


def main() -> int:
    tmp = tempfile.mkdtemp(prefix="dynamic-smoke-")
    sys.path.insert(0, SRC)
    from repro.graphs import gnm_random_graph, write_edge_list

    instance = gnm_random_graph(8, 16, seed=1)
    graph = Path(tmp) / "graph.txt"
    write_edge_list(instance, graph)
    edits = Path(tmp) / "edits.txt"
    edits.write_text(edit_script(instance))
    watch = ["watch", str(graph), str(edits), "-k", "2", "--seed", "7"]

    # 1. Incremental vs cold, gated in-process by --check.
    cold = run_cli(
        [*watch, "--check", "--out", str(Path(tmp) / "cold.json")], tmp
    )
    if cold.returncode != 0:
        fail(
            f"cold watch --check exited {cold.returncode}\n"
            f"{cold.stdout}{cold.stderr}"
        )
    if "(check ok)" not in cold.stdout or "MISMATCH" in cold.stdout:
        fail(f"cold watch did not report per-step checks:\n{cold.stdout}")

    # 2. Crash-until-done under the deterministic SIGKILL hook.  Each
    # casualty must die by SIGKILL; per-step WALs under the persistent
    # checkpoint dir guarantee at least one fresh probe per launch, so
    # the loop terminates.
    crash_args = [
        *watch, "--checkpoint-dir", str(Path(tmp) / "wals"),
        "--out", str(Path(tmp) / "resumed.json"),
    ]
    crashes = 0
    for _ in range(40):
        proc = run_cli(crash_args, tmp, crash_after=2)
        if proc.returncode == 0:
            break
        if proc.returncode != -9:
            fail(
                f"crash run exited {proc.returncode}, expected SIGKILL\n"
                f"{proc.stderr}"
            )
        crashes += 1
    else:
        fail("crash loop never completed")
    if crashes < 1:
        fail("the crash hook never fired — the smoke lost its chaos")

    # 3. Crash-resumed step records must match the cold run's byte for
    # byte once volatile resume counters are stripped.
    cold_doc = json.loads((Path(tmp) / "cold.json").read_text())
    resumed_doc = json.loads((Path(tmp) / "resumed.json").read_text())
    if stable_steps(cold_doc) != stable_steps(resumed_doc):
        fail(
            "crash-resumed stream diverged from the cold stream:\n"
            f"cold:    {json.dumps(stable_steps(cold_doc))}\n"
            f"resumed: {json.dumps(stable_steps(resumed_doc))}"
        )
    resumed_total = sum(s.get("resumed_probes", 0) for s in resumed_doc["steps"])
    if resumed_total < 1:
        fail("no probes were replayed — the resume path never engaged")

    print(
        f"OK: {len(cold_doc['steps'])} steps byte-identical to cold solves "
        f"through {crashes} SIGKILL(s), {resumed_total} probe(s) replayed"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
