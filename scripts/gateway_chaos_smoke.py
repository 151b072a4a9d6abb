#!/usr/bin/env python
"""Chaos smoke check for the HTTP/SSE gateway's network-fault contract.

End to end through the real supervisor, worker subprocesses, asyncio
gateway, and the stdlib client — every scenario scripted, no wall-clock
randomness:

1. **Offline reference**: solve the smoke spec directly; every gateway
   answer below must be byte-identical to it.
2. **Dropped connections + a SIGKILLed worker** (in-process gateway):
   the client's SSE connection is torn down mid-stream on a scripted
   schedule (``ChaosPlan.conn_drops``) while the worker child is
   SIGKILLed mid-job; the reconnecting client must still observe one
   monotone, gap-free, duplicate-free incumbent sequence ending in the
   reference answer with a reconciled ledger receipt.
3. **Idempotent resubmission**: re-POSTing the identical spec attaches
   (``replayed``) — the solver must have run exactly once.
4. **Stalled reader** (``ChaosPlan.stalled_readers``): a client that
   stops reading is evicted by the bounded send path instead of
   stalling the service; the eviction is counted.
5. **Gateway SIGKILL mid-stream** (subprocess server): the client
   consumes one event, the gateway process is SIGKILLed, a successor
   is started on the same spool/workdir, and the client's reconnect
   must replay the journal from disk — same sequence contract, same
   byte-identical answer.

Optionally writes the gateway metric registry (JSON + Prometheus text)
under ``--metrics-dir`` for CI artifact upload.  Exits nonzero with a
diagnostic on any deviation.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import signal
import socket
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))

import numpy as np  # noqa: E402

from repro.core import qmkp  # noqa: E402
from repro.graphs import gnm_random_graph, write_edge_list  # noqa: E402
from repro.service import (  # noqa: E402
    ChaosPlan,
    Gateway,
    GatewayClient,
    JobSpec,
    ServiceConfig,
    Supervisor,
)
from repro.service.http import DropConnection  # noqa: E402
from repro.service.jobs import Job  # noqa: E402


def fail(message: str) -> None:
    print(f"FAIL: {message}", file=sys.stderr)
    raise SystemExit(1)


def check_sequence(records: list[dict], reference: dict, label: str) -> None:
    """One stream's full event log against the gap/dup/answer contract."""
    ids = [r["id"] for r in records]
    if ids != list(range(1, len(ids) + 1)):
        fail(f"{label}: event ids not monotone/gap-free: {ids}")
    incumbents = [r["data"] for r in records if r["event"] == "incumbent"]
    seen = set()
    for inc in incumbents:
        key = (inc["size"], tuple(inc["vertices"]))
        if key in seen:
            fail(f"{label}: duplicate incumbent {key}")
        seen.add(key)
    sizes = [inc["size"] for inc in incumbents]
    if sizes != sorted(sizes) or len(set(sizes)) != len(sizes):
        fail(f"{label}: incumbent sizes not strictly improving: {sizes}")
    terminal = records[-1]
    if terminal["event"] != "result":
        fail(f"{label}: stream did not end in a result event")
    answer = terminal["data"].get("answer")
    if answer != reference:
        fail(
            f"{label}: answer differs from offline reference:\n"
            f"  reference: {json.dumps(reference, sort_keys=True)}\n"
            f"  gateway:   {json.dumps(answer, sort_keys=True)}"
        )
    if not terminal["data"].get("verified"):
        fail(f"{label}: run ledger did not reconcile")
    receipt = json.loads(Path(terminal["data"]["receipt"]).read_text())
    if not receipt["ledger"]["verified"]:
        fail(f"{label}: receipt ledger did not reconcile")


class ChaosStream:
    """Client-side fault injector driven by ``ChaosPlan.stream_faults``."""

    def __init__(self, faults: dict) -> None:
        self.drop_after = list(faults["drop_after"])
        self.records: list[dict] = []
        self.drops = 0

    def __call__(self, record: dict) -> None:
        if self.drop_after and record["id"] == self.drop_after[0]:
            # The connection dies *while* this event is in flight — the
            # client never commits it, so the reconnect redelivers it.
            self.drop_after.pop(0)
            self.drops += 1
            raise DropConnection
        if record["id"] is not None:
            self.records.append(record)


# ----------------------------------------------------------------------
# Scenarios 2-4: in-process gateway (deterministic worker chaos)
# ----------------------------------------------------------------------
async def in_process_scenarios(tmp: Path, graph: Path, reference: dict):
    chaos = ChaosPlan(
        kills={"victim": [1]},          # worker SIGKILLed after probe 1
        conn_drops={"victim": [1]},     # client drops after event id 1
        stalled_readers={"stall": 2.0},
    )
    config = ServiceConfig(
        workers=1,
        workdir=str(tmp / "work"),
        http_send_queue=16,
        http_write_timeout_s=0.5,
        http_heartbeat_s=0.1,
    )
    spec = JobSpec(str(graph), k=2, seed=7, name="victim")
    async with Supervisor(config, chaos=chaos) as sup:
        gateway = Gateway(sup)
        await gateway.start()
        client = GatewayClient(gateway.base_url, timeout_s=60.0)
        stream = ChaosStream(chaos.stream_faults("victim"))

        _, result = await asyncio.to_thread(client.solve, spec, stream)
        if stream.drops != 1:
            fail(f"expected 1 scripted connection drop, saw {stream.drops}")
        check_sequence(stream.records, reference, "in-process chaos stream")
        _, victim = await asyncio.to_thread(client.job, spec.content_key())
        if victim["resumes"] != 1:
            fail(f"victim resumed {victim['resumes']} times, expected 1")
        print(
            f"  drop+worker-kill: {len(stream.records)} events, 1 drop, "
            "1 worker resume, sequence gap/dup-free, answer byte-identical"
        )

        # Scenario 3: identical spec attaches; solver ran exactly once.
        doc = await asyncio.to_thread(client.submit, spec)
        counters = sup.tracer.registry.as_dict()["counters"]
        if not doc["replayed"]:
            fail("identical-spec resubmission was not replayed")
        if counters.get("service_jobs_submitted") != 1:
            fail(
                "identical-spec resubmission double-solved: "
                f"{counters.get('service_jobs_submitted')} submissions"
            )
        print("  idempotent resubmission: attached, solver ran exactly once")

        # Scenario 4: a stalled reader is evicted, not buffered forever.
        faults = chaos.stream_faults("stall")
        key = "feedfacecafebeef"
        stall_job = Job("job-stall", spec, sup.workdir)
        journal = gateway._track(key, stall_job)
        sock = socket.create_connection((gateway.host, gateway.port))
        sock.sendall(
            f"GET /v1/jobs/{key}/events HTTP/1.1\r\n"
            f"Host: x\r\nLast-Event-ID: 0\r\n\r\n".encode()
        )
        deadline = time.monotonic() + faults["stall_s"] + 30.0
        pad = "x" * 2048
        n = 0
        try:
            while time.monotonic() < deadline:
                for _ in range(8):
                    journal.append("incumbent", {"n": n, "pad": pad})
                    n += 1
                await asyncio.sleep(0.02)
                counters = sup.tracer.registry.as_dict()["counters"]
                if counters.get("service_slow_client_evictions", 0) >= 1:
                    break
            else:
                fail("stalled reader was never evicted")
        finally:
            sock.close()
            stall_job.settle("suspended")  # ends its pump
        print("  stalled reader: evicted and counted, supervisor unblocked")

        metrics_json = sup.render_metrics("json")
        metrics_prom = sup.render_metrics("prom")
        await gateway.close()
    return metrics_json, metrics_prom


# ----------------------------------------------------------------------
# Scenario 5: gateway SIGKILL mid-stream (subprocess server)
# ----------------------------------------------------------------------
def start_server(spool: Path, cwd: Path) -> tuple[subprocess.Popen, str]:
    import os

    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get(
        "PYTHONPATH", ""
    )
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve", str(spool),
            "--http", "127.0.0.1:0", "--workers", "1",
        ],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=env, cwd=cwd,
    )
    banner = proc.stdout.readline()
    if "gateway listening on " not in banner:
        proc.kill()
        fail(f"server printed no gateway banner: {banner!r}")
    return proc, banner.split("gateway listening on ")[1].strip()


def gateway_kill_scenario(tmp: Path, graph: Path, reference: dict) -> None:
    spool = tmp / "spool"
    spec = JobSpec(str(graph), k=2, seed=7, name="kill-victim")
    chaos = ChaosPlan(gateway_kills={"kill-victim": [1]})
    faults = chaos.stream_faults("kill-victim")
    journal_path = (
        spool / "gateway-events"
        / f"{spec.content_key()}.events.jsonl"
    )

    proc, url = start_server(spool, tmp)
    records: list[dict] = []
    try:
        client = GatewayClient(url, timeout_s=60.0)
        key = client.submit_with_retries(spec)["job"]
        # Consume exactly up to the scripted kill point, then stop.
        kill_after = faults["kill_after"][0]
        for record in client.stream_once(key, 0):
            if record["id"] is not None:
                records.append(record)
            if record["id"] == kill_after:
                break
        # Determinism: let the job finish journaling on disk, so the
        # SIGKILL provably lands with undelivered events in the journal.
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            if journal_path.exists() and '"type": "result"' in \
                    journal_path.read_text():
                break
            time.sleep(0.1)
        else:
            fail("journal never reached its terminal record")
    finally:
        proc.kill()  # SIGKILL: no drain, no flush, no goodbye
        proc.wait(timeout=60)

    undelivered = records[-1]["id"] if records else 0
    successor, url2 = start_server(spool, tmp)
    try:
        client = GatewayClient(url2, timeout_s=60.0)
        # The reconnect contract: resume from Last-Event-ID against the
        # successor; the journal on disk must close the gap.
        for record in client.stream_once(spec.content_key(), undelivered):
            if record["id"] is not None:
                records.append(record)
        # The settled spec is its journal: a POST replays it unsolved.
        if not client.submit(spec)["replayed"]:
            fail("successor did not replay the settled spec")
        if "service_jobs_submitted" in json.loads(client.metrics())["counters"]:
            fail("successor admitted the settled spec again")
    finally:
        successor.send_signal(signal.SIGINT)
        successor.wait(timeout=60)

    check_sequence(records, reference, "gateway-SIGKILL stream")
    if records[-1]["id"] <= undelivered + 1:
        fail("SIGKILL scenario delivered nothing new after restart")
    print(
        f"  gateway SIGKILL: killed after event {undelivered}, successor "
        f"replayed through event {records[-1]['id']}, answer byte-identical"
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--metrics-dir", default=None, metavar="DIR",
        help="write gateway metrics (JSON + Prometheus) here for CI upload",
    )
    args = parser.parse_args()

    tmp = Path(tempfile.mkdtemp(prefix="gateway-chaos-"))
    graph = tmp / "graph.txt"
    # gnm(7, 10, seed=1): three qMKP probes, so the worker kill after
    # probe 1 genuinely lands mid-search.
    write_edge_list(gnm_random_graph(7, 10, seed=1), graph)

    # Offline reference: one undisturbed no-gateway solve of the same
    # spec, anchored against the direct in-process qmkp() answer.
    async def offline_solve():
        config = ServiceConfig(workers=1, workdir=str(tmp / "ref"))
        async with Supervisor(config) as sup:
            job = sup.submit(JobSpec(str(graph), k=2, seed=7, name="ref"))
            return await job.result_dict()

    reference = asyncio.run(offline_solve())["answer"]
    direct = qmkp(
        gnm_random_graph(7, 10, seed=1), 2, rng=np.random.default_rng(7)
    )
    if (reference["size"], reference["gate_units"], reference["oracle_calls"]) \
            != (direct.size, direct.gate_units, direct.oracle_calls):
        fail("offline reference disagrees with the direct qmkp() solve")
    print(f"offline reference: {json.dumps(reference, sort_keys=True)}")

    metrics_json, metrics_prom = asyncio.run(
        in_process_scenarios(tmp, graph, reference)
    )
    gateway_kill_scenario(tmp, graph, reference)

    if args.metrics_dir:
        out = Path(args.metrics_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "gateway_metrics.json").write_text(metrics_json)
        (out / "gateway_metrics.prom").write_text(metrics_prom)
        print(f"  metrics written under {out}")

    print("OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
