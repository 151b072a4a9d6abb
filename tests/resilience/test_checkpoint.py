"""Checkpoint journal + qMKP resume tests.

The contract under test: a qMKP run journaled to a checkpoint and killed
at any probe boundary resumes **bit-identically** — same subset, same
cost totals, same reconciled ledger — and a journal that does not match
the run (wrong instance, edited lines, invented witnesses, a retired
threshold ladder) is refused loudly instead of silently replayed.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.cli import main
from repro.core import qmkp
from repro.graphs import gnm_random_graph, write_edge_list
from repro.obs import RunLedger, Tracer
from repro.perf.kernels import available_backends
from repro.resilience import (
    CheckpointCorruptError,
    CheckpointError,
    CheckpointJournal,
    CheckpointMismatchError,
)
from repro.resilience.checkpoint import (
    SCHEMA,
    SCHEMA_V2,
    restore_rng_state,
    rng_state,
)

HEADER = {"k": 2, "graph": "abc"}


def _ladder_graph():
    """Three probes (found, found, not found) under both counting modes."""
    return gnm_random_graph(11, 28, seed=7)


def _as_v2(lines: list[str], ladder: str) -> list[str]:
    """``lines`` with the header rewritten in the retired v2 schema,
    which added a ``ladder`` field and nothing else to the header."""
    header = json.loads(lines[0])
    header.update(schema=SCHEMA_V2, ladder=ladder)
    return [json.dumps(header, sort_keys=True), *lines[1:]]


def _write_adaptive_journal(path, graph) -> None:
    """A journal as the removed ``ladder="adaptive"`` wrote it: a v2
    header and, first, a ``skipped`` record — a threshold decided from
    the cached table with no probe run, so no witness or cost fields."""
    source = path.with_suffix(".binary")
    qmkp(graph, 2, rng=123, checkpoint=source)
    lines = source.read_text().splitlines()
    first = json.loads(lines[1])
    skipped = {
        "rng_state": first["rng_state"],
        "skipped": True,
        "threshold": first["threshold"],
    }
    path.write_text(
        "\n".join(_as_v2(lines[:1], "adaptive") + [json.dumps(skipped)]) + "\n"
    )


class TestJournal:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "run.wal"
        with CheckpointJournal(path, HEADER) as journal:
            journal.append_probe({"threshold": 3, "found": True})
            journal.append_probe({"threshold": 5, "found": False})
        header, records = CheckpointJournal.load(path)
        assert header["schema"] == SCHEMA
        assert header["k"] == 2
        assert [r["threshold"] for r in records] == [3, 5]

    def test_fresh_open_truncates_stale_file(self, tmp_path):
        path = tmp_path / "run.wal"
        with CheckpointJournal(path, HEADER) as journal:
            journal.append_probe({"threshold": 3})
        with CheckpointJournal(path, HEADER):
            pass
        _, records = CheckpointJournal.load(path)
        assert records == []

    def test_resume_open_appends(self, tmp_path):
        path = tmp_path / "run.wal"
        with CheckpointJournal(path, HEADER) as journal:
            journal.append_probe({"threshold": 3})
        with CheckpointJournal(path, HEADER, resume=True) as journal:
            assert journal.records_written == 1
            journal.append_probe({"threshold": 5})
        _, records = CheckpointJournal.load(path)
        assert [r["threshold"] for r in records] == [3, 5]

    def test_resume_open_rejects_foreign_header(self, tmp_path):
        path = tmp_path / "run.wal"
        with CheckpointJournal(path, HEADER):
            pass
        with pytest.raises(CheckpointMismatchError, match="header field"):
            CheckpointJournal(path, {"k": 3, "graph": "abc"}, resume=True)

    def test_torn_tail_dropped(self, tmp_path):
        path = tmp_path / "run.wal"
        with CheckpointJournal(path, HEADER) as journal:
            journal.append_probe({"threshold": 3})
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"threshold": 5, "fo')  # kill mid-write
        _, records = CheckpointJournal.load(path)
        assert [r["threshold"] for r in records] == [3]

    def test_torn_tail_is_cut_before_a_resumed_append(self, tmp_path):
        # Regression: the resumed journal used to append onto the torn
        # fragment, gluing the next probe to it, so a job killed twice
        # could never load its journal again.
        path = tmp_path / "run.wal"
        with CheckpointJournal(path, HEADER) as journal:
            journal.append_probe({"threshold": 3})
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"threshold": 5, "fo')  # kill mid-write
        with CheckpointJournal(path, HEADER, resume=True) as journal:
            assert journal.records_written == 1
            journal.append_probe({"threshold": 5})
            journal.append_probe({"threshold": 6})
        _, records = CheckpointJournal.load(path)
        assert [r["threshold"] for r in records] == [3, 5, 6]

    def test_unterminated_final_record_is_kept_and_terminated(self, tmp_path):
        path = tmp_path / "run.wal"
        with CheckpointJournal(path, HEADER) as journal:
            journal.append_probe({"threshold": 3})
        path.write_text(path.read_text().rstrip("\n"))  # lost its newline
        _, records = CheckpointJournal.load(path)
        assert [r["threshold"] for r in records] == [3]
        with CheckpointJournal(path, HEADER, resume=True) as journal:
            journal.append_probe({"threshold": 5})
        _, records = CheckpointJournal.load(path)
        assert [r["threshold"] for r in records] == [3, 5]

    def test_glued_line_is_still_refused(self, tmp_path):
        # A journal damaged by the old append-onto-a-torn-tail bug holds
        # an unparseable line that is not the last: that stays corrupt.
        path = tmp_path / "run.wal"
        with CheckpointJournal(path, HEADER) as journal:
            journal.append_probe({"threshold": 3})
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"threshold": 5, "fo')
            fh.write(json.dumps({"threshold": 5}) + "\n")
            fh.write(json.dumps({"threshold": 6}) + "\n")
        with pytest.raises(CheckpointCorruptError, match="line 3"):
            CheckpointJournal.load(path)

    def test_interior_corruption_raises(self, tmp_path):
        path = tmp_path / "run.wal"
        with CheckpointJournal(path, HEADER) as journal:
            journal.append_probe({"threshold": 3})
            journal.append_probe({"threshold": 5})
        lines = path.read_text().splitlines()
        lines[1] = lines[1][:10]  # corrupt a non-final record
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CheckpointCorruptError, match="unparseable"):
            CheckpointJournal.load(path)

    def test_schema_mismatch_raises(self, tmp_path):
        path = tmp_path / "run.wal"
        path.write_text(json.dumps({"schema": "other/v9"}) + "\n")
        with pytest.raises(CheckpointMismatchError, match="schema"):
            CheckpointJournal.load(path)

    def test_empty_file_raises(self, tmp_path):
        path = tmp_path / "run.wal"
        path.write_text("")
        with pytest.raises(CheckpointError, match="empty"):
            CheckpointJournal.load(path)


class TestRngState:
    def test_round_trip_restores_stream(self):
        rng = np.random.default_rng(7)
        rng.random(5)
        state = rng_state(rng)
        expected = rng.random(8).tolist()
        other = np.random.default_rng(999)
        restore_rng_state(other, state)
        assert other.random(8).tolist() == expected

    def test_state_is_json_safe(self):
        state = rng_state(np.random.default_rng(7))
        json.dumps(state)  # must not raise

    def test_kind_mismatch_rejected(self):
        state = rng_state(np.random.default_rng(7))
        state["bit_generator"] = "MT19937"
        with pytest.raises(CheckpointMismatchError, match="RNG kind"):
            restore_rng_state(np.random.default_rng(7), state)


class TestQmkpResume:
    """End-to-end resume semantics through the solver itself."""

    def _run(self, graph, **kwargs):
        return qmkp(
            graph, 2, rng=np.random.default_rng(7), use_upper_bound=False,
            **kwargs,
        )

    def test_full_journal_resume_is_bit_identical(self, fig1, tmp_path):
        path = tmp_path / "run.wal"
        reference = self._run(fig1)
        journaled = self._run(fig1, checkpoint=path)
        assert journaled.subset == reference.subset
        resumed = self._run(fig1, checkpoint=path, resume=path)
        assert resumed.subset == reference.subset
        assert resumed.oracle_calls == reference.oracle_calls
        assert resumed.gate_units == reference.gate_units
        assert resumed.qtkp_calls == reference.qtkp_calls
        assert resumed.resumed_probes == reference.qtkp_calls

    def test_partial_journal_resume_is_bit_identical(self, fig1, tmp_path):
        path = tmp_path / "run.wal"
        reference = self._run(fig1)
        assert reference.qtkp_calls >= 2  # the scenario needs a mid-point
        self._run(fig1, checkpoint=path)
        # Simulate a kill after the first probe: drop every later record.
        lines = path.read_text().splitlines()
        truncated = tmp_path / "truncated.wal"
        truncated.write_text("\n".join(lines[:2]) + "\n")
        resumed = self._run(fig1, checkpoint=truncated, resume=truncated)
        assert resumed.resumed_probes == 1
        assert resumed.subset == reference.subset
        assert resumed.oracle_calls == reference.oracle_calls
        assert resumed.gate_units == reference.gate_units
        # The journal was extended back to the full run.
        _, records = CheckpointJournal.load(truncated)
        assert len(records) == reference.qtkp_calls

    def test_resume_ledger_reconciles(self, fig1, tmp_path):
        path = tmp_path / "run.wal"
        self._run(fig1, checkpoint=path)
        lines = path.read_text().splitlines()
        truncated = tmp_path / "truncated.wal"
        truncated.write_text("\n".join(lines[:2]) + "\n")
        tracer = Tracer()
        resumed = self._run(
            fig1, checkpoint=truncated, resume=truncated, tracer=tracer
        )
        assert resumed.resumed_probes == 1
        assert RunLedger.from_tracer(tracer).verify(raise_on_drift=False) == []

    def test_resume_rejects_other_instance(self, fig1, small_random_graph, tmp_path):
        path = tmp_path / "run.wal"
        self._run(fig1, checkpoint=path)
        with pytest.raises(CheckpointMismatchError):
            qmkp(
                small_random_graph, 2, rng=np.random.default_rng(7),
                use_upper_bound=False, resume=path,
            )

    def test_resume_rejects_forged_witness(self, fig1, tmp_path):
        path = tmp_path / "run.wal"
        self._run(fig1, checkpoint=path)
        lines = path.read_text().splitlines()
        record = json.loads(lines[1])
        if not record["found"]:
            pytest.skip("first probe was not a witness on this instance")
        record["subset"] = record["subset"][:1]  # forged: below threshold
        lines[1] = json.dumps(record, sort_keys=True)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CheckpointCorruptError, match="re-verification"):
            self._run(fig1, resume=path)

    def test_resume_from_a_torn_journal_finishes_a_loadable_one(self, tmp_path):
        graph = _ladder_graph()
        ref_path = tmp_path / "ref.wal"
        ref = qmkp(graph, 2, rng=123, checkpoint=ref_path)
        lines = ref_path.read_text().splitlines()
        torn = tmp_path / "torn.wal"
        # Killed mid-write of the second probe record.
        torn.write_text("\n".join(lines[:2]) + "\n" + lines[2][:25])
        res = qmkp(graph, 2, rng=123, checkpoint=torn, resume=torn)
        assert res.resumed_probes == 1
        assert res.subset == ref.subset
        assert res.gate_units == ref.gate_units
        header, records = CheckpointJournal.load(torn)
        assert len(records) == ref.qtkp_calls
        assert torn.read_text() == ref_path.read_text()

    def test_checkpointing_does_not_change_the_answer(self, fig1, tmp_path):
        reference = self._run(fig1)
        journaled = self._run(fig1, checkpoint=tmp_path / "run.wal")
        assert journaled.subset == reference.subset
        assert journaled.oracle_calls == reference.oracle_calls
        assert journaled.resumed_probes == 0

    @pytest.mark.parametrize("counting", ["exact", "bbht"])
    def test_resume_bit_identical_from_every_prefix(self, tmp_path, counting):
        graph = _ladder_graph()
        ref_path = tmp_path / "ref.wal"
        ref = qmkp(graph, 2, counting=counting, rng=123, checkpoint=ref_path)
        lines = ref_path.read_text().splitlines()
        assert len(lines) == 1 + ref.qtkp_calls == 4
        for keep in range(len(lines)):
            part = tmp_path / f"part{keep}.wal"
            part.write_text("\n".join(lines[: 1 + keep]) + "\n")
            res = qmkp(
                graph, 2, counting=counting, rng=123, resume=part,
                checkpoint=part,
            )
            assert res.resumed_probes == keep
            assert res.subset == ref.subset
            assert res.oracle_calls == ref.oracle_calls
            assert res.gate_units == ref.gate_units
            assert res.qtkp_calls == ref.qtkp_calls
            assert res.progression == ref.progression
            # The extended journal equals the uninterrupted one.
            assert part.read_text() == ref_path.read_text()

    def test_resume_across_kernel_backends(self, tmp_path):
        backends = available_backends()
        if len(backends) < 2:
            pytest.skip("only one kernel backend available")
        graph = _ladder_graph()
        ref_path = tmp_path / "ref.wal"
        ref = qmkp(
            graph, 2, counting="bbht", rng=42, checkpoint=ref_path,
            kernel=backends[0],
        )
        lines = ref_path.read_text().splitlines()
        part = tmp_path / "part.wal"
        part.write_text("\n".join(lines[:2]) + "\n")
        res = qmkp(
            graph, 2, counting="bbht", rng=42, resume=part, checkpoint=part,
            kernel=backends[-1],
        )
        assert res.subset == ref.subset
        assert res.oracle_calls == ref.oracle_calls
        assert part.read_text() == ref_path.read_text()


class TestJournalSchemas:
    """v1 is written; v2 journals of the binary ladder still resume; a
    v2 journal of the removed adaptive ladder is refused as a typed
    error before any of its records is replayed."""

    def test_v1_journal_resumes(self, tmp_path):
        graph = _ladder_graph()
        path = tmp_path / "v1.wal"
        ref = qmkp(graph, 2, counting="bbht", rng=5, checkpoint=path)
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        assert header["schema"] == SCHEMA == "repro.resilience/qmkp-checkpoint/v1"
        assert "ladder" not in header
        path.write_text("\n".join(lines[:2]) + "\n")
        res = qmkp(graph, 2, counting="bbht", rng=5, resume=path)
        assert res.resumed_probes == 1
        assert res.subset == ref.subset
        assert res.oracle_calls == ref.oracle_calls

    @pytest.mark.parametrize("counting", ["exact", "bbht"])
    def test_v2_binary_journal_resumes_bit_identically(self, tmp_path, counting):
        graph = _ladder_graph()
        ref_path = tmp_path / "ref.wal"
        ref = qmkp(graph, 2, counting=counting, rng=123, checkpoint=ref_path)
        lines = ref_path.read_text().splitlines()
        part = tmp_path / "v2.wal"
        part.write_text("\n".join(_as_v2(lines[:2], "binary")) + "\n")
        res = qmkp(
            graph, 2, counting=counting, rng=123, resume=part, checkpoint=part,
        )
        assert res.resumed_probes == 1
        assert res.subset == ref.subset
        assert res.oracle_calls == ref.oracle_calls
        assert res.gate_units == ref.gate_units
        assert res.qtkp_calls == ref.qtkp_calls
        assert res.progression == ref.progression
        # The v2 header stays; the records continue exactly as v1 ones.
        extended = part.read_text().splitlines()
        assert extended[0] == _as_v2(lines, "binary")[0]
        assert extended[1:] == lines[1:]

    def test_v2_adaptive_journal_refused(self, tmp_path):
        graph = _ladder_graph()
        path = tmp_path / "adaptive.wal"
        _write_adaptive_journal(path, graph)
        with pytest.raises(CheckpointMismatchError, match="'adaptive'"):
            CheckpointJournal.load(path)
        with pytest.raises(CheckpointMismatchError, match="'adaptive'"):
            qmkp(graph, 2, rng=123, resume=path, checkpoint=path)

    def test_cli_refuses_adaptive_journal(self, fig1, tmp_path, capsys):
        graph_file = tmp_path / "fig1.txt"
        write_edge_list(fig1, graph_file)
        journal = tmp_path / "adaptive.wal"
        _write_adaptive_journal(journal, fig1)
        before = journal.read_text()
        code = main([
            "solve", str(graph_file), "--solver", "qmkp",
            "--checkpoint", str(journal),
        ])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: checkpoint:")
        assert "'adaptive'" in err[0]
        assert journal.read_text() == before  # refused, not truncated


class TestResumable:
    """``CheckpointJournal.resumable`` — the auto-resume gate.

    Only journals that never got a durable header (zero-length, torn
    first line) read as "nothing to resume"; anything with a parseable
    header is resumable=True so that a *mismatched* journal still fails
    loudly in ``load`` instead of being silently restarted.
    """

    def test_missing_file(self, tmp_path):
        assert CheckpointJournal.resumable(tmp_path / "nope.wal") is False

    def test_zero_length_file(self, tmp_path):
        path = tmp_path / "empty.wal"
        path.touch()
        assert CheckpointJournal.resumable(path) is False

    def test_torn_header(self, tmp_path):
        path = tmp_path / "torn.wal"
        path.write_text('{"schema": 1, "k"')  # kill landed mid-write
        assert CheckpointJournal.resumable(path) is False

    def test_whitespace_only(self, tmp_path):
        path = tmp_path / "blank.wal"
        path.write_text("\n")
        assert CheckpointJournal.resumable(path) is False

    def test_valid_journal(self, tmp_path):
        path = tmp_path / "run.wal"
        with CheckpointJournal(path, HEADER) as journal:
            journal.append_probe({"threshold": 3, "found": True})
        assert CheckpointJournal.resumable(path) is True

    def test_header_only_journal(self, tmp_path):
        path = tmp_path / "run.wal"
        with CheckpointJournal(path, HEADER):
            pass
        assert CheckpointJournal.resumable(path) is True

    def test_foreign_header_still_resumable(self, tmp_path):
        # Deliberate: a journal from a *different* run must reach
        # ``load`` and raise a mismatch, not be treated as fresh.
        path = tmp_path / "foreign.wal"
        path.write_text(json.dumps({"schema": 999, "k": 5}) + "\n")
        assert CheckpointJournal.resumable(path) is True
