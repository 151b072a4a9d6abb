"""E11 — Fig. 15: logical variables, physical qubits, chain length vs n.

The paper embeds the k = 3 QUBO for graphs of n = 10..43 vertices and
tracks three curves: logical binary variables (growing as O(n log n),
40 -> 258), physical qubits (faster growth, 79 -> 2591), and average
chain length (2 -> ~10 on Pegasus hardware).

Our Chimera-family topologies are sparser than Pegasus, so chain
lengths are larger in absolute terms (see EXPERIMENTS.md); the asserted
shapes are the paper's: variable count within the O(n log n) envelope,
physical qubits growing super-linearly relative to variables, and
monotone non-decreasing chain length.  Embeddings use a fixed seed so
the rows repeat from run to run.
"""

import math

from conftest import emit
from repro.analysis import format_table
from repro.annealing import SimulatedQPUSampler, chimera_graph
from repro.core import build_mkp_qubo
from repro.datasets import chain_experiment_graph

SIZES = (10, 15, 20, 25, 30, 36, 43)


def test_fig15_chain_growth(benchmark):
    qpu = SimulatedQPUSampler(hardware=chimera_graph(16), max_call_time_us=None)

    def embed_one():
        model = build_mkp_qubo(chain_experiment_graph(20), 3)
        sampler = SimulatedQPUSampler(
            hardware=chimera_graph(16), max_call_time_us=None
        )
        return sampler.embed(model.bqm, seed=0)

    benchmark(embed_one)

    rows = []
    variables, physical, chains = [], [], []
    for n in SIZES:
        g = chain_experiment_graph(n)
        model = build_mkp_qubo(g, 3)
        emb = qpu.embed(model.bqm, seed=0)
        variables.append(model.num_variables)
        physical.append(emb.num_physical_qubits)
        chains.append(emb.average_chain_length)
        rows.append(
            (
                n,
                model.num_variables,
                emb.num_physical_qubits,
                f"{emb.average_chain_length:.2f}",
                f"{n * (1 + math.ceil(math.log2(n)) + 1)}",
            )
        )

    # O(n log n) variable envelope.
    for n, v in zip(SIZES, variables):
        assert v <= n * (1 + math.ceil(math.log2(n)) + 1)
        assert v >= n  # at least the vertex variables

    # Variables grow monotonically; physical qubits grow faster
    # (chain length increases), and chain length is non-decreasing.
    assert variables == sorted(variables)
    assert physical == sorted(physical)
    assert all(b >= a - 1e-9 for a, b in zip(chains, chains[1:]))
    assert physical[-1] / physical[0] > variables[-1] / variables[0]

    emit(
        "fig15_chain",
        format_table(
            ["n", "logical variables", "physical qubits",
             "avg chain length", "n(1+ceil(log2 n)+1) bound"],
            rows,
            title="Fig. 15: embedding growth with graph size "
            "(k=3, density 0.7, Chimera-family hardware)",
        ),
    )
