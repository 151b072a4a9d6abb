"""The QPU sampling path against the code it replaced.

Three references below are transcriptions of deleted code, kept so the
replacements stay pinned to them:

* ``reference_try_embed`` — greedy chain growth that picked each chain's
  root as the nearest qubit of a full radius-24 BFS from the smallest
  placed-neighbour chain.  The nearest qubit is always the first free
  neighbour of that chain (distance 1, nothing to walk back), so the
  scan in :func:`repro.annealing.embedding._try_embed` must return the
  same chains, raise the same errors and leave the RNG in the same
  state.
* ``reference_sample_logical`` — the logical-mode sampler that expanded
  the SA samples shot by shot into a float matrix and built one dict per
  shot for ``SampleSet.from_states``.  The matrix path must produce the
  same sample set: assignments, energies, counts, order and info.
* ``reference_validate`` — per-row validation (one ``bqm.energy`` call
  per sample).  The batched pass must return the same clean set and the
  same report, reasons in the same order.
"""

import math
import random
from collections import deque
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.annealing import (
    BinaryQuadraticModel,
    EmbeddingError,
    RowAssignment,
    Sample,
    SampleSet,
    SimulatedAnnealingSampler,
    SimulatedQPUSampler,
    chimera_graph,
    pegasus_like_graph,
)
from repro.annealing import embedding as embedding_module
from repro.annealing.embedding import (
    _BFS_RADIUS,
    _chains_touch,
    _connect,
    _seed_qubit,
    _try_embed,
    _walk_back,
)
from repro.core import build_mkp_qubo
from repro.datasets.paper_instances import ANNEALING_INSTANCES
from repro.graphs import gnm_random_graph
from repro.resilience import validate_sampleset

# ----------------------------------------------------------------------
# Reference implementations
# ----------------------------------------------------------------------


def _bfs_from_chain(hardware, chain, used, max_dist=None):
    dist, parent = {}, {}
    queue = deque()
    for q in chain:
        for w in hardware.adjacency[q]:
            if w not in used and w not in dist:
                dist[w] = 1
                parent[w] = None
                queue.append(w)
    while queue:
        q = queue.popleft()
        if max_dist is not None and dist[q] >= max_dist:
            continue
        for w in hardware.adjacency[q]:
            if w not in used and w not in dist:
                dist[w] = dist[q] + 1
                parent[w] = q
                queue.append(w)
    return dist, parent


def reference_try_embed(variables, logical_edges, hardware, rng):
    neighbours = {v: set() for v in variables}
    for u, v in logical_edges:
        neighbours[u].add(v)
        neighbours[v].add(u)
    order = sorted(variables, key=lambda v: (-len(neighbours[v]), str(v)))
    if rng.random() < 0.5 and len(order) > 2:
        i, jdx = rng.randrange(len(order)), rng.randrange(len(order))
        order[i], order[jdx] = order[jdx], order[i]
    chains, used = {}, set()
    for var in order:
        placed = [w for w in sorted(neighbours[var], key=str) if w in chains]
        placed.sort(key=lambda w: len(chains[w]))
        if not placed:
            root = _seed_qubit(hardware, used, rng)
            chains[var] = {root}
            used.add(root)
            continue
        dist, parent = _bfs_from_chain(
            hardware, chains[placed[0]], used, max_dist=_BFS_RADIUS
        )
        if not dist:
            raise EmbeddingError(f"chain of first neighbour of {var!r} is walled in")
        root = min(dist, key=dist.get)
        chain = {root} | _walk_back(root, parent)
        for w in placed[1:]:
            if _chains_touch(hardware, chain, chains[w]):
                continue
            path = _connect(hardware, chain, chains[w], used)
            if path is None:
                raise EmbeddingError(f"cannot route {var!r} to its neighbour {w!r}")
            chain |= path
        chains[var] = chain
        used.update(chain)
    return chains


def reference_sample_logical(self, bqm, emb, sweeps, num_reads, rng, seed):
    order = bqm.variables
    break_probs = np.array(
        [
            1.0 - (1.0 - self.chain_break_per_link) ** (len(emb.chains[v]) - 1)
            for v in order
        ]
    )
    raw = SimulatedAnnealingSampler().sample(
        bqm, num_reads=num_reads, num_sweeps=sweeps,
        seed=None if seed is None else seed + 1,
    )
    states = []
    for sample in raw.samples:
        for _ in range(sample.num_occurrences):
            states.append([sample.assignment[v] for v in order])
    states = np.array(states, dtype=float)
    breaks = rng.random(states.shape) < break_probs[None, :]
    random_bits = rng.integers(0, 2, size=states.shape)
    states = np.where(breaks, random_bits, states)
    energies = bqm.energies(states, order)
    assignments = [
        {v: int(states[r, c]) for c, v in enumerate(order)}
        for r in range(states.shape[0])
    ]
    out = SampleSet.from_states(assignments, energies.tolist())
    out.info["chain_break_fraction"] = float(breaks.mean())
    return out


def reference_validate(sampleset, bqm, energy_tol=1e-6):
    """Per-row validation; returns ``(clean, report_dict)``."""
    report = {"total_rows": 0, "kept_rows": 0, "quarantined_rows": 0,
              "repaired_energies": 0, "reasons": {}}

    def count(reason):
        report["reasons"][reason] = report["reasons"].get(reason, 0) + 1

    def defect(sample):
        for v in bqm.variables:
            if v not in sample.assignment:
                return "missing_variable"
            x = sample.assignment[v]
            if isinstance(x, float) and not math.isfinite(x):
                return "non_finite_value"
            if x not in (0, 1):
                return "non_binary_value"
        return None

    kept = []
    for sample in sampleset.samples:
        report["total_rows"] += sample.num_occurrences
        reason = defect(sample)
        if reason is not None:
            report["quarantined_rows"] += sample.num_occurrences
            count(reason)
            continue
        energy = sample.energy
        true_energy = bqm.energy(sample.assignment)
        if not math.isfinite(energy) or abs(energy - true_energy) > energy_tol:
            report["repaired_energies"] += sample.num_occurrences
            count("non_finite_energy" if not math.isfinite(energy)
                  else "inconsistent_energy")
            sample = Sample(sample.assignment, true_energy, sample.num_occurrences)
        kept.append(sample)
        report["kept_rows"] += sample.num_occurrences
    out = SampleSet(kept, dict(sampleset.info))
    if report["quarantined_rows"] or report["repaired_energies"]:
        out.info["validation"] = report
    return out, report


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------


def fingerprint(sampleset):
    """Every sample exactly: assignment (keys, order, value types),
    energy bits, multiplicity, position."""
    return [
        (repr(dict(s.assignment)), float(s.energy).hex(), s.num_occurrences)
        for s in sampleset.samples
    ]


def assert_same_validation(sampleset, bqm):
    clean, report = validate_sampleset(sampleset, bqm)
    ref_clean, ref_report = reference_validate(sampleset, bqm)
    assert fingerprint(clean) == fingerprint(ref_clean)
    assert clean.info == ref_clean.info
    assert report.as_dict() == ref_report
    assert list(report.reasons) == list(ref_report["reasons"])
    return report


HARDWARE = {
    "C4": lambda: chimera_graph(4),
    "C16": lambda: chimera_graph(16),
    "P6": lambda: pegasus_like_graph(6),
}


@st.composite
def small_qubos(draw):
    n = draw(st.integers(3, 9))
    m = draw(st.integers(n - 1, n * (n - 1) // 2))
    graph = gnm_random_graph(n, m, seed=draw(st.integers(0, 10_000)))
    return build_mkp_qubo(graph, draw(st.integers(1, 3))).bqm


# ----------------------------------------------------------------------
# Embedding: first-free-neighbour root == nearest qubit of the full BFS
# ----------------------------------------------------------------------


def assert_greedy_matches(bqm, hardware, seed):
    hw = HARDWARE[hardware]()
    variables, edges = bqm.variables, bqm.interaction_graph_edges()
    ours, theirs = random.Random(seed), random.Random(seed)
    # find_embedding's retry loop: consecutive tries share one RNG.
    for _ in range(5):
        try:
            expected = reference_try_embed(list(variables), list(edges), hw, theirs)
        except EmbeddingError as exc:
            with pytest.raises(EmbeddingError) as caught:
                _try_embed(list(variables), list(edges), hw, ours)
            assert str(caught.value) == str(exc)
        else:
            assert _try_embed(list(variables), list(edges), hw, ours) == expected
        assert ours.getstate() == theirs.getstate()


class TestGreedyEmbeddingReference:
    @settings(max_examples=40, deadline=None)
    @given(
        bqm=small_qubos(),
        hardware=st.sampled_from(sorted(HARDWARE)),
        seed=st.integers(0, 2**16),
    )
    def test_matches_full_bfs(self, bqm, hardware, seed):
        assert_greedy_matches(bqm, hardware, seed)

    @pytest.mark.parametrize(
        "n,m,graph_seed,k,hardware,seed",
        [
            (10, 35, 0, 1, "P6", 4),
            (7, 10, 3, 2, "C4", 4),
            (7, 10, 3, 2, "C16", 4),
            (6, 8, 22, 1, "P6", 0),
        ],
    )
    def test_root_follows_chain_iteration_order(
        self, n, m, graph_seed, k, hardware, seed
    ):
        # Cases where the root's chain iterates in an order other than
        # sorted qubit order: the root is the first free neighbour in
        # the chain's own iteration order, as the BFS frontier was.
        bqm = build_mkp_qubo(gnm_random_graph(n, m, seed=graph_seed), k).bqm
        assert_greedy_matches(bqm, hardware, seed)

    def test_failures_are_covered(self):
        # A dense QUBO on a C4 walls greedy in: the reference raises,
        # so the comparison above exercises the error path too.
        graph = gnm_random_graph(9, 30, seed=3)
        bqm = build_mkp_qubo(graph, 2).bqm
        with pytest.raises(EmbeddingError):
            reference_try_embed(
                bqm.variables, bqm.interaction_graph_edges(), chimera_graph(4),
                random.Random(0),
            )

    def test_find_embedding_matches_reference(self):
        bqm = build_mkp_qubo(ANNEALING_INSTANCES["D_10_40"].build(), 3).bqm
        args = (bqm.variables, bqm.interaction_graph_edges(), chimera_graph(16))
        for seed in range(4):
            ours = embedding_module.find_embedding(*args, seed=seed)
            with mock.patch.object(embedding_module, "_try_embed", reference_try_embed):
                theirs = embedding_module.find_embedding(*args, seed=seed)
            assert ours.chains == theirs.chains


# ----------------------------------------------------------------------
# Logical-mode sampling: state matrix == per-shot dicts
# ----------------------------------------------------------------------


def _both_paths(bqm, seed, **kwargs):
    """The same call through the matrix path and the per-shot reference."""
    sampler = SimulatedQPUSampler(max_call_time_us=None)
    emb = sampler.embed(bqm, seed=seed)
    ours = sampler.sample(bqm, seed=seed, embedding=emb, mode="logical", **kwargs)
    with mock.patch.object(
        SimulatedQPUSampler, "_sample_logical", reference_sample_logical
    ):
        theirs = sampler.sample(bqm, seed=seed, embedding=emb, mode="logical", **kwargs)
    return ours, theirs


class TestLogicalSamplingReference:
    @pytest.mark.parametrize("name", ["D_20_100", "D_30_300"])
    @pytest.mark.parametrize("annealing_time_us,num_reads", [(1.0, 400), (20.0, 50)])
    def test_paper_instances(self, name, annealing_time_us, num_reads):
        bqm = build_mkp_qubo(ANNEALING_INSTANCES[name].build(), 3).bqm
        ours, theirs = _both_paths(
            bqm, seed=7, annealing_time_us=annealing_time_us, num_reads=num_reads
        )
        assert fingerprint(ours) == fingerprint(theirs)
        assert ours.info == theirs.info
        assert all(isinstance(s.assignment, RowAssignment) for s in ours)
        assert_same_validation(ours, bqm)
        assert_same_validation(theirs, bqm)

    @settings(max_examples=30, deadline=None)
    @given(
        bqm=small_qubos(),
        seed=st.integers(0, 2**16),
        num_reads=st.integers(1, 60),
        annealing_time_us=st.sampled_from([1.0, 3.0]),
    )
    def test_random_instances(self, bqm, seed, num_reads, annealing_time_us):
        ours, theirs = _both_paths(
            bqm, seed=seed, annealing_time_us=annealing_time_us, num_reads=num_reads
        )
        assert fingerprint(ours) == fingerprint(theirs)
        assert ours.info == theirs.info
        assert len(ours) == num_reads

    def test_gauge_blocks_see_the_same_rows(self):
        # The gauge path re-reads the logical samples row by row.
        bqm = build_mkp_qubo(ANNEALING_INSTANCES["D_10_40"].build(), 3).bqm
        ours, theirs = _both_paths(
            bqm, seed=3, annealing_time_us=2.0, num_reads=40,
            num_spin_reversal_transforms=4,
        )
        assert fingerprint(ours) == fingerprint(theirs)
        assert ours.info == theirs.info


# ----------------------------------------------------------------------
# Validation: batched matrix rows == per-row pass
# ----------------------------------------------------------------------


def _bqm():
    return BinaryQuadraticModel(
        {"a": -1.0, "b": 0.5, "c": 2.0},
        {("a", "b"): 2.0, ("b", "c"): -1.5, ("a", "c"): 0.25},
    )


def _matrix_set(rows, energies=None):
    bqm = _bqm()
    states = np.array(rows, dtype=np.int8)
    if energies is None:
        energies = bqm.energies(states)
    return SampleSet.from_matrix(bqm.variables, states, np.asarray(energies, float))


class TestBatchedValidationReference:
    def test_clean_matrix_rows(self):
        ss = _matrix_set([[1, 0, 1], [0, 0, 0], [1, 0, 1], [1, 1, 0]])
        report = assert_same_validation(ss, _bqm())
        assert report.clean and report.total_rows == 4

    def test_sampler_output(self):
        bqm = build_mkp_qubo(ANNEALING_INSTANCES["D_10_40"].build(), 3).bqm
        ss = SimulatedAnnealingSampler().sample(
            bqm, num_reads=300, num_sweeps=2, seed=5
        )
        assert assert_same_validation(ss, bqm).total_rows == 300

    def test_matrix_row_holding_a_two_is_quarantined(self):
        ss = _matrix_set([[1, 0, 1], [0, 2, 0], [1, 1, 0]], energies=[0.0, 0.0, 0.0])
        report = assert_same_validation(ss, _bqm())
        assert report.reasons["non_binary_value"] == 1

    def test_nan_and_inconsistent_energies_are_repaired(self):
        ss = _matrix_set(
            [[1, 0, 1], [0, 0, 0], [1, 1, 0], [0, 1, 1]],
            energies=[float("nan"), 0.0, 99.0, float("inf")],
        )
        report = assert_same_validation(ss, _bqm())
        assert report.repaired_energies == 3
        assert list(report.reasons) == ["non_finite_energy", "inconsistent_energy"]

    def test_mixed_dict_and_row_views(self):
        bqm = _bqm()
        order = bqm.variables

        def view(bits):
            return RowAssignment(order, np.array(bits, dtype=np.int8))

        ss = SampleSet([
            Sample(view([1, 0, 1]), bqm.energy({"a": 1, "b": 0, "c": 1})),
            Sample({"a": 0, "b": 1, "c": 0}, 0.5, num_occurrences=2),
            Sample(view([0, 3, 0]), 0.0),
            Sample({"a": 1, "b": float("nan"), "c": 0}, 0.0),
            Sample(view([1, 1, 1]), float("nan"), num_occurrences=3),
            Sample({"a": 1}, 0.0),
            Sample(RowAssignment(("c", "b", "a"), np.array([1, 0, 0], np.int8)), -1.0),
            Sample(RowAssignment(order, [0, 1, 1]), 0.0),
        ])
        report = assert_same_validation(ss, bqm)
        assert report.quarantined_rows == 3 and report.repaired_energies == 5

    def test_fault_injected_sets(self):
        from repro.resilience import FaultInjectingSampler, FaultPlan

        bqm = build_mkp_qubo(ANNEALING_INSTANCES["D_10_40"].build(), 3).bqm
        for plan in ("corrupt=1.0,seed=1", "storm=1.0,seed=2"):
            sampler = FaultInjectingSampler(
                SimulatedQPUSampler(max_call_time_us=None), FaultPlan.parse(plan)
            )
            ss = sampler.sample(bqm, annealing_time_us=1.0, num_reads=80, seed=4,
                                mode="logical")
            assert_same_validation(ss, bqm)
