"""The three benchmark workloads: inputs, one pass of ops, answer checks.

Every input is generated from the workload seed; the program under test
only ever receives the generated graphs, edge-list files and job specs.
Each workload is a closed loop: a caller issues its next op only after
the previous one returned.

Why each workload exists, and which layers it isolates or bypasses:

* ``qmkp-gate`` -- one caller running ``qmkp(graph, 2)`` with defaults
  (binary ladder, exact counting, auto kernel, run-local cache) on one
  G(n, 6n) graph per n = 16..22.  At n = 22 the dense 2^n Grover loop is
  nearly all the work; below n = 20 oracle construction, marked-set
  enumeration and verification are the bulk.  A Grover-engine change
  and an oracle or enumeration change therefore both show here, while
  no annealing or service code runs.
* ``qamkp-anneal`` -- one caller running ``qamkp()`` per cell exactly as
  ``qmkp solve`` calls it (no ``qpu=``/``qubo=`` reuse) over the paper's
  Table V (dt sweep) and Table VI (penalty sweep) cells plus SA cells on
  D_20_100 and D_30_300 at k = 3.  Small-budget QPU cells are mostly
  embedding and topology builds, dt = 1 us cells are mostly per-shot
  sampling and sampleset validation, SA cells share the sampleset and
  validation code but embed nothing.  No Grover or service code runs.
* ``gateway-mix`` -- two closed-loop ``GatewayClient.solve`` callers
  against ``python -m repro serve DIR --http 127.0.0.1:0 --workers 2``
  with a fresh DIR per run: fresh qMKP jobs on G(n, 3n) graphs,
  n = 10..16, a few ``qamkp-sa`` jobs, and duplicate submissions of
  specs that already settled.  For millisecond solves the runner
  start-up (spawn + import) outweighs the solve, so lazy imports or warm
  runners show here and nowhere else; duplicates are served from the
  SSE event journal without a runner (the read path beside the write
  path).

Work per run is made independent of the seed on purpose, so runs with
different seeds measure the code rather than the luck of the draw: the
gate and annealing graphs are seeded vertex relabellings of fixed base
graphs, and the qMKP base graphs are chosen so that the binary ladder's
probe sequence (hence the Grover work) barely depends on which marked
subset a measurement returns.  The seed still changes every edge list,
marked mask, sampler stream and measurement.
"""

from __future__ import annotations

import json
import signal
import subprocess
import sys
import threading
import time
from collections import deque
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro import is_kplex, maximum_kplex, qamkp, qmkp
from repro.datasets.paper_instances import ANNEALING_INSTANCES
from repro.graphs import Graph, gnm_random_graph, read_edge_list, write_edge_list

#: The workloads with one-line reasons, mirrored in BENCHMARK.json.
WHY = {
    "qmkp-gate": "in-process qmkp() on G(n,6n), n=16..22: dense Grover loop "
                 "at n=22, oracle/enumeration/verify below n=20; no "
                 "annealing or service code",
    "qamkp-anneal": "in-process qamkp() Table V/VI + SA cells on D_20_100 and "
                    "D_30_300: embedding, per-shot sampling, sampleset and "
                    "validation; no Grover or service code",
    "gateway-mix": "2 GatewayClients on qmkp serve --http: ms qMKP/SA jobs "
                   "where runner spawn+import dominates, plus duplicate "
                   "specs replayed from the event journal",
}
WORKLOADS = tuple(WHY)

#: Base-graph seeds for ``qmkp-gate``: per n, the G(n, 6n) graph whose
#: ladder cost has the smallest spread over measurement outcomes (the
#: maximum 2-plex is rare among the feasible subsets the first probes
#: sample, so the ladder almost always takes the same probes) and whose
#: degeneracy bound -- label-independent, unlike the colouring bound --
#: sets the ladder's upper end.
GATE_BASE_SEEDS = {16: 9, 17: 23, 18: 33, 19: 2, 20: 19, 21: 54, 22: 35}

#: Latency percentile reported as ``latency_tail_s``: the highest one
#: with at least ten samples beyond it at the op counts one run makes.
#: The in-process workloads take it over their ops' fastest repeats
#: (qamkp-anneal has 44 cells, so p75 leaves 11 beyond; qmkp-gate has
#: seven ops, one per size, so its tail is the slowest), gateway-mix
#: over every job of a run (14 per pass, several passes).
TAIL_PERCENTILE = {"qmkp-gate": 100.0, "qamkp-anneal": 75.0, "gateway-mix": 75.0}

K_GATE = 2
K_ANNEAL = 3
K_GATEWAY = 2
SA_JOB_RUNTIME_US = 10_000.0


def relabelled(base: Graph, rng: np.random.Generator) -> Graph:
    """An isomorphic copy of ``base`` under a random vertex permutation."""
    perm = rng.permutation(base.num_vertices)
    return Graph(
        base.num_vertices,
        [(int(perm[u]), int(perm[v])) for u, v in sorted(base.edges)],
    )


def _derived_seed(*parts: int) -> int:
    return int(np.random.default_rng(list(parts)).integers(0, 2**31 - 1))


@dataclass
class Op:
    """One operation of a pass: what to call and how to check it."""

    index: int
    group: str
    params: dict = field(default_factory=dict)


# ----------------------------------------------------------------------
# qmkp-gate
# ----------------------------------------------------------------------
def gate_graphs(seed: int, scale: str) -> dict[int, Graph]:
    if scale == "tiny":
        return {
            n: relabelled(gnm_random_graph(n, 2 * n, seed=n),
                          np.random.default_rng([seed, n]))
            for n in (8, 9, 10)
        }
    return {
        n: relabelled(gnm_random_graph(n, 6 * n, seed=base),
                      np.random.default_rng([seed, n]))
        for n, base in GATE_BASE_SEEDS.items()
    }


#: Sizes below this take well under a second, so each is solved once per
#: round, ten rounds per pass, with the large solves spread between the
#: rounds (same graph and seed, so the solves repeat exactly): the run
#: then reports the fastest of ten rather than a single sample of a
#: noisy host.
GATE_REPEAT_BELOW = 20
GATE_ROUNDS = 10


def gate_ops(seed: int, graphs: dict[int, Graph]) -> list[Op]:
    """One op per graph; the small ones recur with the same ``index``."""
    sizes = sorted(graphs)
    small = [n for n in sizes if n < GATE_REPEAT_BELOW]
    large = [n for n in sizes if n >= GATE_REPEAT_BELOW]
    after_round = {(2 * j + 1) * GATE_ROUNDS // (2 * len(large)): n
                   for j, n in enumerate(large)}
    order: list[int] = []
    for i in range(GATE_ROUNDS):
        order += small
        if i in after_round:
            order.append(after_round[i])
    return [Op(sizes.index(n), f"n={n}", {"n": n, "rng": [seed, 7, n]}) for n in order]


def run_gate_op(op: Op, graphs: dict[int, Graph], tracer=None) -> dict:
    graph = graphs[op.params["n"]]
    first: dict = {}
    start = time.perf_counter()

    def on_progress(event, subset, replayed) -> None:
        if not first:
            first["s"] = time.perf_counter() - start
            first["gate_units"] = event.cumulative_gate_units
            first["subset"] = sorted(subset)

    result = qmkp(
        graph, K_GATE, rng=np.random.default_rng(op.params["rng"]),
        tracer=tracer, on_progress=on_progress,
    )
    latency = time.perf_counter() - start
    return {
        "latency_s": latency,
        "first_s": first.get("s"),
        "answer": {
            "subset": sorted(result.subset),
            "gate_units": result.gate_units,
            "oracle_calls": result.oracle_calls,
            "qtkp_calls": result.qtkp_calls,
            "first_gate_units": first.get("gate_units"),
            "first_subset": first.get("subset"),
        },
    }


def check_gate(op: Op, record: dict, graphs: dict[int, Graph],
               optimum: dict[int, int]) -> str | None:
    n = op.params["n"]
    answer = record["answer"]
    subset = frozenset(answer["subset"])
    if len(subset) != optimum[n]:
        return f"size {len(subset)} != maximum_kplex optimum {optimum[n]}"
    if not is_kplex(graphs[n], subset, K_GATE):
        return "answer is not a k-plex"
    first = answer["first_subset"]
    if first is None or not is_kplex(graphs[n], first, K_GATE):
        return "first incumbent missing or not a k-plex"
    return None


# ----------------------------------------------------------------------
# qamkp-anneal
# ----------------------------------------------------------------------
def anneal_instances(seed: int, scale: str) -> dict[str, Graph]:
    names = ("D_10_40",) if scale == "tiny" else ("D_20_100", "D_30_300")
    return {
        name: relabelled(ANNEALING_INSTANCES[name].build(),
                         np.random.default_rng([seed, i]))
        for i, name in enumerate(names)
    }


def anneal_optimum(name: str) -> int:
    return ANNEALING_INSTANCES[name].known_optima[K_ANNEAL]


def anneal_ops(seed: int, scale: str) -> list[Op]:
    cells: list[tuple[str, str, float, float, float]] = []
    if scale == "tiny":
        cells = [
            ("D_10_40", "qpu", 2.0, 50.0, 1.0),
            ("D_10_40", "qpu", 2.0, 100.0, 10.0),
            ("D_10_40", "sa", 2.0, 1e4, 1.0),
        ]
    else:
        for name in ("D_20_100", "D_30_300"):          # Table V: dt sweep
            for dt in (1.0, 10.0, 20.0, 40.0, 100.0, 200.0):
                cells.append((name, "qpu", 2.0, 1000.0, dt))
        for penalty in (1.1, 2.0, 4.0, 8.0):            # Table VI: R sweep
            for budget in (1.0, 5.0, 10.0, 50.0, 100.0, 500.0, 1000.0):
                cells.append(("D_20_100", "qpu", penalty, budget, 1.0))
        for name in ("D_20_100", "D_30_300"):           # SA baseline
            for budget in (1e4, 1e5):
                cells.append((name, "sa", 2.0, budget, 1.0))
    ops = []
    for i, (name, solver, penalty, budget, dt) in enumerate(cells):
        shots = max(1, int(round(budget / dt)))
        group = "sa" if solver == "sa" else (
            "qpu-small" if shots <= 100 else "qpu-shots"
        )
        ops.append(Op(i, group, {
            "instance": name, "solver": solver, "penalty": penalty,
            "runtime_us": budget, "delta_t_us": dt,
            "seed": _derived_seed(seed, 11, i),
        }))
    return ops


def run_anneal_op(op: Op, instances: dict[str, Graph], tracer=None) -> dict:
    p = op.params
    start = time.perf_counter()
    result = qamkp(
        instances[p["instance"]], K_ANNEAL, penalty=p["penalty"],
        runtime_us=p["runtime_us"], delta_t_us=p["delta_t_us"],
        solver=p["solver"], seed=p["seed"], tracer=tracer,
    )
    latency = time.perf_counter() - start
    # qamkp streams no incumbent: its first verified result is its answer.
    return {
        "latency_s": latency,
        "first_s": latency,
        "answer": {"cost": result.cost, "repaired": sorted(result.repaired)},
    }


def check_anneal(op: Op, record: dict, instances: dict[str, Graph]) -> str | None:
    name = op.params["instance"]
    repaired = frozenset(record["answer"]["repaired"])
    if not is_kplex(instances[name], repaired, K_ANNEAL):
        return "repaired answer is not a k-plex"
    if len(repaired) > anneal_optimum(name):
        return f"repaired size {len(repaired)} exceeds the optimum"
    return None


# ----------------------------------------------------------------------
# gateway-mix
# ----------------------------------------------------------------------
def gateway_sizes(scale: str) -> tuple[int, ...]:
    return (8, 9) if scale == "tiny" else tuple(range(10, 17))


def gateway_pass(seed: int, scale: str, pass_index: int, workdir: Path) -> list[Op]:
    """Write one pass's edge lists; return its ops in submission order.

    Fresh specs differ from every earlier pass's (new files, new seeds),
    so only the listed duplicates can replay.  A duplicate names the
    index of the op whose spec it resubmits.
    """
    paths: dict[int, str] = {}
    for n in gateway_sizes(scale):
        graph = relabelled(gnm_random_graph(n, 3 * n, seed=n),
                           np.random.default_rng([seed, pass_index, n]))
        path = workdir / f"p{pass_index:03d}-g{n}.txt"
        write_edge_list(graph, path)
        paths[n] = str(path)

    def spec(n: int, solver: str, salt: int) -> dict:
        doc = {"graph_path": paths[n], "k": K_GATEWAY, "solver": solver,
               "seed": _derived_seed(seed, 13, pass_index, salt)}
        if solver == "qamkp-sa":
            doc["runtime_us"] = SA_JOB_RUNTIME_US
        return doc

    def fresh(n: int, solver: str = "qmkp") -> tuple[str, dict]:
        return f"fresh-{solver}", spec(n, solver, n if solver == "qmkp" else 100 + n)

    def duplicate(index: int) -> tuple[str, int]:
        return "duplicate", index

    if scale == "tiny":
        layout = [fresh(8), fresh(9), fresh(8, "qamkp-sa"), duplicate(0)]
    else:
        # Duplicates trail their originals by several ops, so the original
        # has normally settled (the caller also waits until it has).
        layout = [fresh(10), fresh(11), fresh(12), fresh(12, "qamkp-sa"), fresh(13),
                  fresh(14), fresh(15), duplicate(0), fresh(16, "qamkp-sa"), fresh(16),
                  duplicate(1), duplicate(3), duplicate(2), duplicate(4)]
    ops: list[Op] = []
    for group, payload in layout:
        if group == "duplicate":
            params = {"spec": ops[payload].params["spec"], "duplicate_of": payload}
        else:
            params = {"spec": payload}
        ops.append(Op(len(ops), group, params))
    return ops


class Gateway:
    """A ``qmkp serve --http`` process owned by the benchmark.

    It inherits the environment ``run.py`` set up for the worker: the
    checkout's ``src`` on ``PYTHONPATH`` and the kernel cache location.
    """

    def __init__(self, workdir: Path) -> None:
        self.log = open(workdir / "server.log", "w")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", str(workdir / "spool"),
             "--http", "127.0.0.1:0", "--workers", "2"],
            stdout=subprocess.PIPE, stderr=self.log, text=True,
        )
        banner = self.proc.stdout.readline().strip()
        if not banner.startswith("gateway listening on "):
            self.close()
            raise RuntimeError(f"gateway failed to start: {banner!r}")
        self.url = banner.rsplit(" ", 1)[1]

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
        self.log.close()


def run_gateway_pass(ops: list[Op], url: str, bind_tracer, tracers: list) -> list[dict]:
    """Drive ``ops`` through two closed-loop callers; records by op index.

    ``bind_tracer`` installs a caller thread's tracer for the layer
    wrappers (``tracers`` receives each one); with ``bind_tracer=None``
    the pass is untraced.
    """
    from repro.service.http import GatewayClient
    from repro.service.jobs import JobSpec

    queue = deque(ops)
    lock = threading.Lock()
    settled = {op.index: threading.Event() for op in ops}
    records: dict[int, dict] = {}

    def caller() -> None:
        tracer = None
        if bind_tracer is not None:
            from repro.obs import Tracer

            tracer = Tracer()
            bind_tracer(tracer)
            with lock:
                tracers.append(tracer)
        client = GatewayClient(url)
        while True:
            with lock:
                if not queue:
                    return
                op = queue.popleft()
            original = op.params.get("duplicate_of")
            if original is not None:
                settled[original].wait(timeout=120)
            spec = JobSpec.from_dict(op.params["spec"])
            first: dict = {}
            start = time.perf_counter()

            def on_event(record) -> None:
                if record["event"] == "incumbent" and not first:
                    first["s"] = time.perf_counter() - start

            span = tracer.span("bench.op", group=op.group) if tracer else nullcontext()
            try:
                with span:
                    _, result = client.solve(spec, on_event=on_event)
                error = None
            except Exception as exc:  # noqa: BLE001 - recorded as a failed op
                result, error = None, f"{type(exc).__name__}: {exc}"
            latency = time.perf_counter() - start
            settled[op.index].set()
            records[op.index] = {
                "latency_s": latency,
                "first_s": first.get("s") if op.group == "fresh-qmkp" else None,
                "error": error,
                "answer": None if result is None else {
                    "state": result.get("state"),
                    "verified": result.get("verified"),
                    "receipt": result.get("receipt"),
                    "answer": result.get("answer"),
                },
            }

    threads = [threading.Thread(target=caller, daemon=True) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=170)
    return [records.get(op.index, {"latency_s": 0.0, "first_s": None,
                                   "error": "op never completed", "answer": None})
            for op in ops]


def gateway_reference(spec: dict) -> dict:
    """In-process answer for a job spec, computed the way the runner does."""
    graph, labels = read_edge_list(spec["graph_path"])
    if spec["solver"] == "qmkp":
        result = qmkp(graph, spec["k"], rng=np.random.default_rng(spec["seed"]))
        return {
            "size": result.size,
            "vertices": sorted(labels[v] for v in result.subset),
            "gate_units": result.gate_units,
            "oracle_calls": result.oracle_calls,
        }
    result = qamkp(graph, spec["k"], runtime_us=spec["runtime_us"],
                   solver="sa", seed=spec["seed"])
    return {
        "size": len(result.repaired),
        "vertices": sorted(labels[v] for v in result.repaired),
        "cost": result.cost,
    }


def check_gateway(op: Op, record: dict, records: list[dict]) -> str | None:
    doc = record["answer"]
    if doc["state"] != "done" or not doc["verified"]:
        return f"job settled {doc['state']!r}, verified={doc['verified']}"
    receipt = json.loads(Path(doc["receipt"]).read_text())
    if not receipt["ledger"]["verified"]:
        return "receipt ledger does not reconcile"
    answer = doc["answer"]
    original = op.params.get("duplicate_of")
    if original is not None:
        if answer != records[original]["answer"]["answer"]:
            return "duplicate returned a different answer than its original"
        return None
    reference = gateway_reference(op.params["spec"])
    mismatched = [key for key, value in reference.items() if answer.get(key) != value]
    if mismatched:
        return f"answer differs from in-process solve on {mismatched}"
    return None


def exact_optima(graphs: dict[int, Graph]) -> dict[int, int]:
    return {n: maximum_kplex(g, K_GATE).size for n, g in graphs.items()}
