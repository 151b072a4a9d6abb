"""Server-Sent Events substrate: wire format + the per-job event journal.

The gateway's reconnect contract rests on one structure, the
:class:`EventJournal` — an append-only JSON-lines file of everything a
job ever streamed, with **monotone 1-based event ids**:

* every SSE frame a client receives carries its journal id, so a
  client that reconnects with ``Last-Event-ID: n`` is replayed ids
  ``n+1..`` from disk and then switched live — no gaps, no duplicates;
* the journal is keyed by the job's **content key** (the same key the
  checkpoint journal uses), so it survives gateway restarts: a killed
  gateway's successor reopens the file and continues appending where
  the old one stopped;
* appends are **deduplicated by content** — a crash-resumed job replays
  its incumbents (bit-identically, per the checkpoint contract) with
  ``replayed=True``; the journal recognises the re-announcement and
  does not re-journal it, which is what makes the client's stream
  duplicate-free across worker crashes and gateway kills;
* the file is a :mod:`~repro.resilience.jsonlog` log, flushed per
  record (the checkpoint WAL's format, without its fsync): a gateway
  SIGKILLed mid-append costs at most the final line, which the
  successor cuts off before its first append; a bit-identical resume
  regenerates the event with the same id;
* a settled journal holds no open file: the handle closes with the
  terminal record and reopens only if a resubmitted spec appends more,
  so a long-lived gateway holds one handle per *live* job.

Fan-out to live connections goes through bounded
:class:`Subscription` queues.  A subscriber that falls
``maxsize`` events behind is **evicted** (flagged; the connection
handler closes it) instead of growing an unbounded buffer or blocking
the append path — the slow client can reconnect with ``Last-Event-ID``
and catch up from the journal at its own pace.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
from pathlib import Path

from ..resilience.jsonlog import JsonLinesLog, read_json_lines

__all__ = [
    "EventJournal",
    "Subscription",
    "encode_comment",
    "encode_event",
    "parse_sse_stream",
]

#: Record types that settle a journal; at most one is ever appended.
TERMINAL_TYPES = ("result",)


def encode_event(record: dict) -> bytes:
    """One SSE frame: ``id:`` + ``event:`` + single-line ``data:``."""
    data = json.dumps(record["data"], sort_keys=True)
    return (
        f"id: {record['id']}\nevent: {record['type']}\ndata: {data}\n\n"
    ).encode("utf-8")


def encode_comment(text: str = "") -> bytes:
    """An SSE comment frame (ignored by ``Last-Event-ID`` tracking)."""
    return f": {text}\n\n".encode("utf-8")


def _digest(type_: str, data: dict) -> str:
    """Content identity of one event, invariant under replay.

    ``replayed`` is excluded: a checkpoint-resumed job re-announces its
    incumbents bit-identically except for that flag, and those
    re-announcements must collapse onto the original journal entries.
    """
    payload = {k: v for k, v in data.items() if k != "replayed"}
    canonical = json.dumps({"type": type_, "data": payload}, sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class Subscription:
    """One live listener's bounded event queue."""

    def __init__(self, journal: "EventJournal", maxsize: int) -> None:
        self._journal = journal
        self.queue: asyncio.Queue = asyncio.Queue(maxsize=maxsize)
        self.evicted = False

    def close(self) -> None:
        self._journal._subscribers.discard(self)


class EventJournal:
    """Persistent, deduplicating, monotone-id event log for one job."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.records: list[dict] = []
        self._digests: set[str] = set()
        self.terminal: dict | None = None
        self._subscribers: set[Subscription] = set()
        keep = self._load()
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._log: JsonLinesLog | None = JsonLinesLog(self.path, keep=keep)
        if self.terminal is not None:
            self._close_log()

    def _load(self) -> int:
        """Reopen an existing journal (gateway restart), torn-tail safe.

        Returns the byte length of the accepted prefix; whatever follows
        it is cut off before the next append.
        """
        try:
            lines = read_json_lines(self.path)
        except OSError:
            return 0
        for record in lines.records:
            try:
                record_id = int(record["id"])
                type_ = str(record["type"])
                data = dict(record["data"])
            except (ValueError, KeyError, TypeError):
                break  # not an event record: the journal ends before it
            if record_id != len(self.records) + 1:
                break  # out-of-sequence tail — treat like torn
            self.records.append({"id": record_id, "type": type_, "data": data})
            self._digests.add(_digest(type_, data))
            if type_ in TERMINAL_TYPES:
                self.terminal = self.records[-1]
        return lines.end(len(self.records))

    # ------------------------------------------------------------------
    @property
    def last_id(self) -> int:
        return len(self.records)

    def append(self, type_: str, data: dict) -> dict | None:
        """Journal one event; returns the record, or None if deduplicated.

        Duplicate content (a crash-resume's ``replayed`` re-announcement
        of an already-journaled incumbent) is dropped.  A second
        terminal record is likewise dropped — the first final answer
        stands (any later one is bit-identical by the resume contract).

        Either terminal closes the file handle: the job settled, and
        only a resubmission of its spec can append again.
        """
        if type_ in TERMINAL_TYPES and self.terminal is not None:
            self._close_log()
            return None
        digest = _digest(type_, data)
        if digest in self._digests:
            return None
        record = {"id": len(self.records) + 1, "type": type_, "data": data}
        if self._log is None:  # reopen, keeping exactly what is journaled
            keep = read_json_lines(self.path).end(len(self.records))
            self._log = JsonLinesLog(self.path, keep=keep)
        self.records.append(record)
        self._digests.add(digest)
        self._log.append(record)
        if type_ in TERMINAL_TYPES:
            self.terminal = record
            self._close_log()
        for sub in list(self._subscribers):
            if sub.evicted:
                continue
            try:
                sub.queue.put_nowait(record)
            except asyncio.QueueFull:
                # The reader fell a full queue behind: evict instead of
                # buffering without bound.  Its handler closes the
                # connection; the journal keeps the truth for replay.
                sub.evicted = True
        return record

    def replay(self, after_id: int = 0) -> list[dict]:
        """Records with id > ``after_id`` (the Last-Event-ID contract)."""
        if after_id <= 0:
            return list(self.records)
        return [r for r in self.records if r["id"] > after_id]

    def subscribe(self, maxsize: int) -> Subscription:
        sub = Subscription(self, maxsize)
        self._subscribers.add(sub)
        return sub

    def _close_log(self) -> None:
        if self._log is not None:
            self._log.close()
            self._log = None

    def close(self) -> None:
        self._close_log()
        self._subscribers.clear()


def parse_sse_stream(lines):
    """Incremental client-side SSE parser.

    ``lines`` is any iterable of ``bytes`` (e.g. an ``http.client``
    response object).  Yields ``{"id": int | None, "event": str,
    "data": str}`` per dispatched event; comment frames (heartbeats)
    are consumed silently, per the SSE spec.  Returns when the stream
    ends.
    """
    event_type = "message"
    event_id: int | None = None
    data_lines: list[str] = []
    for raw in lines:
        line = raw.decode("utf-8", errors="replace").rstrip("\r\n")
        if line == "":
            if data_lines:
                yield {
                    "id": event_id,
                    "event": event_type,
                    "data": "\n".join(data_lines),
                }
            event_type = "message"
            event_id = None
            data_lines = []
            continue
        if line.startswith(":"):
            continue  # comment / heartbeat
        field, _, value = line.partition(":")
        value = value[1:] if value.startswith(" ") else value
        if field == "event":
            event_type = value
        elif field == "data":
            data_lines.append(value)
        elif field == "id":
            try:
                event_id = int(value)
            except ValueError:
                event_id = None
    # A frame without its terminating blank line was torn mid-write by a
    # dying connection — drop it; the reconnect replays it whole.
