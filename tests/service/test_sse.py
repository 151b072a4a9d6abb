"""Unit tests for the SSE substrate: wire format + event journal.

The journal is the load-bearing piece of the gateway's reconnect
contract, so its invariants — monotone ids, content dedupe, torn-tail
reload, bounded fan-out — are pinned here without any HTTP in the
loop.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.service.sse import (
    EventJournal,
    encode_comment,
    encode_event,
    parse_sse_stream,
)


def _lines(payload: bytes):
    """Split raw SSE bytes the way an http response iterates: by line."""
    return payload.splitlines(keepends=True)


class TestWireFormat:
    def test_event_roundtrip(self):
        record = {"id": 3, "type": "incumbent", "data": {"size": 4, "k": 2}}
        frames = list(parse_sse_stream(_lines(encode_event(record))))
        assert frames == [
            {"id": 3, "event": "incumbent", "data": json.dumps(
                record["data"], sort_keys=True
            )}
        ]

    def test_comments_are_consumed_silently(self):
        payload = (
            encode_comment("hb")
            + encode_event({"id": 1, "type": "incumbent", "data": {"a": 1}})
            + encode_comment("hb")
        )
        frames = list(parse_sse_stream(_lines(payload)))
        assert [f["id"] for f in frames] == [1]

    def test_torn_trailing_frame_is_dropped(self):
        whole = encode_event({"id": 1, "type": "incumbent", "data": {"a": 1}})
        torn = encode_event({"id": 2, "type": "incumbent", "data": {"a": 2}})
        # Cut the terminating blank line off the second frame: a dying
        # connection tore it mid-write.
        payload = whole + torn[: len(torn) - 1]
        frames = list(parse_sse_stream(_lines(payload)))
        assert [f["id"] for f in frames] == [1]

    def test_crlf_and_padded_values(self):
        payload = b"id: 7\r\nevent: result\r\ndata: {}\r\n\r\n"
        frames = list(parse_sse_stream(_lines(payload)))
        assert frames == [{"id": 7, "event": "result", "data": "{}"}]


class TestEventJournal:
    def test_ids_are_monotone_from_one(self, tmp_path):
        journal = EventJournal(tmp_path / "j.jsonl")
        ids = [journal.append("incumbent", {"n": i})["id"] for i in range(5)]
        assert ids == [1, 2, 3, 4, 5]
        assert journal.last_id == 5

    def test_replayed_incumbent_is_deduplicated(self, tmp_path):
        journal = EventJournal(tmp_path / "j.jsonl")
        original = {"size": 3, "vertices": [0, 1, 2], "replayed": False}
        assert journal.append("incumbent", original) is not None
        # A crash-resume re-announces the same incumbent, flagged.
        replay = dict(original, replayed=True)
        assert journal.append("incumbent", replay) is None
        assert journal.last_id == 1

    def test_second_terminal_is_dropped(self, tmp_path):
        journal = EventJournal(tmp_path / "j.jsonl")
        assert journal.append("result", {"state": "done", "answer": 4})
        assert journal.append("result", {"state": "done", "answer": 4}) is None
        assert journal.terminal["id"] == 1

    def test_settled_journal_takes_nothing_more(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = EventJournal(path)
        journal.append("incumbent", {"n": 1})
        journal.append("result", {"state": "failed"})
        settled = path.read_bytes()
        assert journal.append("incumbent", {"n": 2}) is None
        assert journal.last_id == 2
        journal.close()
        assert path.read_bytes() == settled

    def test_readonly_load_leaves_the_file_alone(self, tmp_path):
        # The gateway reads settled and detached journals this way: the
        # same records as a writer would load, and no cut of the tail.
        path = tmp_path / "j.jsonl"
        journal = EventJournal(path)
        journal.append("incumbent", {"n": 1})
        journal.append("result", {"state": "done"})
        journal.close()
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"id": 3, "type": "incumbent", "da')  # torn
        on_disk = path.read_bytes()

        reader = EventJournal(path, readonly=True)
        assert [r["id"] for r in reader.replay(0)] == [1, 2]
        assert reader.terminal["data"] == {"state": "done"}
        assert path.read_bytes() == on_disk

    def test_reload_continues_where_predecessor_stopped(self, tmp_path):
        path = tmp_path / "j.jsonl"
        first = EventJournal(path)
        first.append("incumbent", {"n": 1})
        first.append("incumbent", {"n": 2})
        first.close()

        second = EventJournal(path)
        assert second.last_id == 2
        assert second.append("incumbent", {"n": 2}) is None  # still deduped
        record = second.append("incumbent", {"n": 3})
        assert record["id"] == 3
        assert len(second.replay(0)) == 3

    def test_torn_tail_is_discarded_on_reload(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = EventJournal(path)
        journal.append("incumbent", {"n": 1})
        journal.append("incumbent", {"n": 2})
        journal.close()
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"id": 3, "type": "incumbent", "da')  # torn mid-append

        reloaded = EventJournal(path)
        assert reloaded.last_id == 2
        # The regenerated event gets the torn record's id, keeping the
        # client-visible sequence gap-free.
        assert reloaded.append("incumbent", {"n": 3})["id"] == 3

    def test_torn_tail_is_cut_before_the_next_append(self, tmp_path):
        # Regression: the reopened journal used to append onto the torn
        # fragment, so the second restart lost every event written after
        # the first one and handed their ids out again.
        path = tmp_path / "j.jsonl"
        journal = EventJournal(path)
        journal.append("incumbent", {"n": 1})
        journal.append("incumbent", {"n": 2})
        journal.close()
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"id": 3, "type": "incumbent", "da')  # torn mid-append

        reopened = EventJournal(path)
        reopened.append("incumbent", {"n": 3})
        reopened.append("incumbent", {"n": 4})
        reopened.close()

        again = EventJournal(path)
        assert again.last_id == 4
        assert [r["data"]["n"] for r in again.replay(0)] == [1, 2, 3, 4]
        assert [r["id"] for r in again.replay(0)] == [1, 2, 3, 4]
        assert again.append("incumbent", {"n": 5})["id"] == 5

    def test_glued_line_ends_the_journal_and_is_cut(self, tmp_path):
        # A journal damaged by the old bug: a fragment with a whole
        # record glued onto it, then more records.  Loading stops before
        # the glued line; reopening cuts it and everything after it.
        path = tmp_path / "j.jsonl"
        journal = EventJournal(path)
        journal.append("incumbent", {"n": 1})
        journal.close()
        stray = {"id": 2, "type": "incumbent", "data": {"n": 2}}
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"id": 2, "type": "incumbent", "da')
            fh.write(json.dumps(stray) + "\n")
            fh.write(json.dumps(dict(stray, id=3)) + "\n")

        reopened = EventJournal(path)
        assert reopened.last_id == 1
        reopened.append("incumbent", {"n": 2})
        reopened.close()
        assert [r["id"] for r in EventJournal(path).replay(0)] == [1, 2]

    def test_out_of_sequence_tail_is_discarded(self, tmp_path):
        path = tmp_path / "j.jsonl"
        records = [
            {"id": 1, "type": "incumbent", "data": {"n": 1}},
            {"id": 5, "type": "incumbent", "data": {"n": 5}},
        ]
        path.write_text(
            "".join(json.dumps(r) + "\n" for r in records), encoding="utf-8"
        )
        journal = EventJournal(path)
        assert journal.last_id == 1

    def test_replay_after_id(self, tmp_path):
        journal = EventJournal(tmp_path / "j.jsonl")
        for i in range(4):
            journal.append("incumbent", {"n": i})
        assert [r["id"] for r in journal.replay(2)] == [3, 4]
        assert [r["id"] for r in journal.replay(0)] == [1, 2, 3, 4]
        assert journal.replay(9) == []

    def test_slow_subscriber_is_evicted_not_buffered(self, tmp_path):
        async def scenario():
            journal = EventJournal(tmp_path / "j.jsonl")
            fast = journal.subscribe(maxsize=16)
            slow = journal.subscribe(maxsize=2)
            for i in range(5):
                journal.append("incumbent", {"n": i})
            return fast, slow

        fast, slow = asyncio.run(scenario())
        assert slow.evicted
        assert slow.queue.qsize() == 2  # bounded: nothing past maxsize
        assert not fast.evicted
        assert fast.queue.qsize() == 5

    def test_closed_subscription_stops_receiving(self, tmp_path):
        async def scenario():
            journal = EventJournal(tmp_path / "j.jsonl")
            sub = journal.subscribe(maxsize=4)
            journal.append("incumbent", {"n": 1})
            sub.close()
            journal.append("incumbent", {"n": 2})
            return sub

        sub = asyncio.run(scenario())
        assert sub.queue.qsize() == 1

    def test_dedupe_is_keyed_on_type_too(self, tmp_path):
        journal = EventJournal(tmp_path / "j.jsonl")
        assert journal.append("incumbent", {"state": "done"}) is not None
        assert journal.append("result", {"state": "done"}) is not None
