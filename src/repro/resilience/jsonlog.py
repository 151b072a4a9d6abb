"""The append-only JSON-lines log under both of the repo's journals.

The checkpoint WAL (:class:`~repro.resilience.CheckpointJournal`) and
the gateway's SSE event journal (:class:`~repro.service.sse.EventJournal`)
are both files of JSON documents, one per ``\\n``-terminated line,
appended by one process at a time.  This module owns what they share:

* **encoding** — ``json.dumps(record, sort_keys=True) + "\\n"``, one
  ``write`` per record, flushed before :meth:`JsonLinesLog.append`
  returns; :meth:`JsonLinesLog.sync` adds the fsync for a caller whose
  contract needs it;
* **torn-tail detection** — a kill mid-``write`` leaves a prefix of the
  last line.  :func:`read_json_lines` parses line by line, stops at the
  first line that does not parse, and says whether that line is the
  file's last (a torn tail) or an earlier one (the file was edited, or
  a writer appended onto a torn tail);
* **cutting before the next append** — :class:`JsonLinesLog` reopens a
  file keeping only the prefix its caller accepted, so the next record
  starts a fresh line instead of being glued onto a fragment (which
  would make it, and everything after it, unreadable).

What a line means — headers, schemas, ids, dedupe, which damage is
fatal — stays with each journal.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import NamedTuple

__all__ = ["JsonLines", "JsonLinesLog", "read_json_lines"]


class JsonLines(NamedTuple):
    """What :func:`read_json_lines` found in one log file."""

    #: Every parsed line, in order, up to the first that does not parse.
    records: list
    #: Byte offset just past each record's line.
    ends: list[int]
    #: Number of lines in the file, blank ones included.
    lines: int
    #: 1-based number of the first line that does not parse, if any.
    bad_line: int | None

    @property
    def torn(self) -> bool:
        """The unparseable line is the last one: an append cut short."""
        return self.bad_line == self.lines

    def end(self, count: int) -> int:
        """Byte length of the prefix holding the first ``count`` records."""
        return self.ends[count - 1] if count else 0


def read_json_lines(path: str | Path) -> JsonLines:
    """Parse ``path`` one line at a time; ``OSError`` if it is unreadable.

    Blank lines carry no record and are skipped.  Parsing stops at the
    first line that is not JSON; nothing after it is read.
    """
    data = Path(path).read_bytes()
    lines = data.split(b"\n")
    if lines[-1] == b"":
        lines.pop()  # the last line's terminator, not a line
    records: list = []
    ends: list[int] = []
    offset = 0
    for number, line in enumerate(lines, 1):
        offset = min(offset + len(line) + 1, len(data))
        if not line.strip():
            continue
        try:
            records.append(json.loads(line))
        except ValueError:
            return JsonLines(records, ends, len(lines), number)
        ends.append(offset)
    return JsonLines(records, ends, len(lines), None)


class JsonLinesLog:
    """Append handle on one JSON-lines file.

    ``keep`` is the byte length of the prefix that survives — normally
    ``read_json_lines(path).end(n)`` for the ``n`` records the caller
    accepted.  Everything past it (a torn tail, or lines the caller's
    schema refused) is cut off before the first append, and a kept last
    line that lost its ``\\n`` to a kill gets it back.  ``keep=0``
    starts the file empty, truncating whatever was there.
    """

    def __init__(self, path: str | Path, keep: int = 0) -> None:
        if keep:
            with open(path, "r+b") as fh:
                fh.truncate(keep)
                fh.seek(keep - 1)
                if fh.read(1) != b"\n":
                    fh.write(b"\n")
        self._fh = open(path, "a" if keep else "w", encoding="utf-8")

    def append(self, record: object) -> None:
        """Write ``record`` as one line and flush it to the OS."""
        self._fh.write(json.dumps(record, sort_keys=True) + "\n")
        self._fh.flush()

    def sync(self) -> None:
        """fsync what was appended, so it also survives a power cut."""
        os.fsync(self._fh.fileno())

    def close(self) -> None:
        self._fh.close()
