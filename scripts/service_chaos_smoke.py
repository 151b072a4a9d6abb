#!/usr/bin/env python
"""Chaos smoke check for the solver service's crash-resume guarantee.

The CI scenario, end to end through the real supervisor and worker
subprocesses:

1. run a reference batch of jobs on an undisturbed service;
2. run the same batch under a scripted :class:`ChaosPlan` that SIGKILLs
   worker children mid-job — one job killed once, one killed twice
   (cumulative probe counts, since the journal counts resumed records);
3. require every chaos-run answer to be **byte-identical** to its
   reference, every receipt ledger reconciled, and the service metrics
   to account for exactly the scripted crashes and resumes;
4. check the typed backpressure error on an over-capacity queue.

Everything is seeded and scripted — no wall-clock randomness — so a
failure is a regression, never flake.  Exits nonzero with a diagnostic
on any deviation.  No arguments; work happens in a temp directory.
"""

from __future__ import annotations

import asyncio
import json
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))

from repro.graphs import gnm_random_graph, write_edge_list  # noqa: E402
from repro.service import (  # noqa: E402
    BackpressureError,
    ChaosPlan,
    JobSpec,
    ServiceConfig,
    Supervisor,
)


def fail(message: str) -> None:
    print(f"FAIL: {message}", file=sys.stderr)
    raise SystemExit(1)


async def run_batch(specs, workdir, chaos=None, **config_kwargs):
    config = ServiceConfig(
        workers=config_kwargs.pop("workers", 2), workdir=str(workdir),
        **config_kwargs,
    )
    async with Supervisor(config, chaos=chaos) as sup:
        jobs = [sup.submit(spec) for spec in specs]
        results = await asyncio.gather(
            *(job.result_dict() for job in jobs)
        )
    return jobs, results, sup


def main() -> int:
    tmp = Path(tempfile.mkdtemp(prefix="service-chaos-"))
    graph = tmp / "graph.txt"
    # gnm(7, 10, seed=1): three qMKP probes, so kills after probes 1
    # and 2 genuinely land mid-search.
    write_edge_list(gnm_random_graph(7, 10, seed=1), graph)
    specs = [
        JobSpec(str(graph), k=2, seed=7, name="job-a"),
        JobSpec(str(graph), k=2, seed=11, name="job-b"),
        JobSpec(str(graph), k=2, solver="bs", name="job-c"),
    ]

    _, reference, _ = asyncio.run(run_batch(specs, tmp / "ref"))
    print("reference answers:")
    for spec, result in zip(specs, reference):
        print(f"  {spec.name}: {json.dumps(result['answer'], sort_keys=True)}")

    # job-a: killed once after probe 1.  job-b: killed after probe 1,
    # resumed, killed again after (cumulative) probe 2, resumed again.
    chaos = ChaosPlan(kills={"job-a": [1], "job-b": [1, 2]})
    jobs, results, sup = asyncio.run(run_batch(specs, tmp / "chaos", chaos))

    for spec, job, result, ref in zip(specs, jobs, results, reference):
        if result["answer"] != ref["answer"]:
            fail(
                f"{spec.name}: chaos answer differs from reference:\n"
                f"  reference: {json.dumps(ref['answer'], sort_keys=True)}\n"
                f"  chaos:     {json.dumps(result['answer'], sort_keys=True)}"
            )
        if not result["verified"]:
            fail(f"{spec.name}: run ledger did not reconcile")
        receipt = json.loads(Path(result["receipt"]).read_text())
        if not receipt["ledger"]["verified"]:
            fail(f"{spec.name}: receipt ledger did not reconcile")
        print(
            f"  {spec.name}: byte-identical after {job.resumes} resume(s), "
            "receipt reconciled"
        )

    counters = sup.tracer.registry.as_dict()["counters"]
    if counters.get("service_worker_crashes") != 3:
        fail(f"expected 3 worker crashes, saw {counters}")
    if counters.get("service_jobs_resumed") != 3:
        fail(f"expected 3 job resumes, saw {counters}")
    if counters.get("service_jobs_completed") != 3:
        fail(f"expected 3 completed jobs, saw {counters}")
    print("service metrics: 3 crashes, 3 resumes, 3 completions")

    # Typed backpressure: an unstarted supervisor drains nothing, so
    # the bounded lane fills deterministically.
    sup2 = Supervisor(ServiceConfig(workers=1, queue_capacity=1,
                                    workdir=str(tmp / "bp")))
    sup2.submit(specs[0])
    try:
        sup2.submit(specs[1])
    except BackpressureError as exc:
        if exc.capacity != 1:
            fail(f"backpressure carried wrong capacity: {exc.capacity}")
        print(f"backpressure: typed rejection ({exc})")
    else:
        fail("over-capacity submit was not rejected")

    print("OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
