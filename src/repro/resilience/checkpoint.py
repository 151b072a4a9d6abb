"""Write-ahead checkpoint journal for qMKP binary searches.

A killed ``O*(2^(n/2))`` run should not discard its completed threshold
probes.  :class:`CheckpointJournal` is a line-oriented JSON WAL:

* line 1 is a **header** binding the journal to one instance — the
  graph's structural fingerprint (original and reduced), ``k``, the
  counting mode and search flags, and the RNG bit-generator kind;
* every completed qTKP probe appends one **probe record**: the
  threshold, the verified witness, the full cost accounting needed to
  rebuild the :class:`~repro.core.qtkp.QTKPResult`, and the measurement
  RNG's bit-generator state *after* the probe.

The file is a :mod:`~repro.resilience.jsonlog` log.  Appends are
flushed and fsynced before the search advances, so a SIGKILL can lose
at most the probe in flight; a torn final line (the crash landed
mid-write) is dropped on load and cut off before a resumed run appends
to the journal.  Resuming
(``qmkp(..., resume=PATH)``) replays the recorded probes through the
same binary-search update rule, re-verifies every witness classically,
restores the RNG state, and continues live — bit-identical to the run
that was never killed.
"""

from __future__ import annotations

import json
import os
import signal
from pathlib import Path

import numpy as np

from .jsonlog import JsonLines, JsonLinesLog, read_json_lines

__all__ = [
    "CheckpointError",
    "CheckpointJournal",
    "CheckpointMismatchError",
    "CheckpointCorruptError",
    "restore_rng_state",
    "rng_state",
    "validate_header",
]

SCHEMA = "repro.resilience/qmkp-checkpoint/v1"

#: A retired schema that added a ``ladder`` header field (and, for the
#: removed ``"adaptive"`` ladder, extra record kinds).  Its
#: ``ladder: "binary"`` journals hold exactly v1 records and still load;
#: any other ladder is refused.
SCHEMA_V2 = "repro.resilience/qmkp-checkpoint/v2"

#: CI/test hook: when set to N, the process SIGKILLs itself after the
#: N-th probe record has been durably appended — a deterministic
#: "crash mid-search" for the kill-and-resume smoke job.
CRASH_ENV = "QMKP_CRASH_AFTER_PROBES"

#: Like :data:`CRASH_ENV` but delivers SIGINT instead of SIGKILL — a
#: deterministic "operator pressed Ctrl-C mid-search", used to test the
#: graceful-interrupt paths (CLI exit 130, service job suspension).
#: Unlike the SIGKILL hook the journal is *not* closed first: the
#: KeyboardInterrupt unwinds through the search's normal cleanup.
SIGINT_ENV = "QMKP_SIGINT_AFTER_PROBES"


class CheckpointError(RuntimeError):
    """Base class for checkpoint problems."""


class CheckpointMismatchError(CheckpointError):
    """The journal belongs to a different instance / configuration."""


class CheckpointCorruptError(CheckpointError):
    """A journal record failed re-verification on resume."""


def validate_header(
    expected: dict[str, object], actual: dict[str, object], where: str
) -> None:
    """Every field the run needs must match the journal's header."""
    for key, value in expected.items():
        if actual.get(key) != value:
            raise CheckpointMismatchError(
                f"{where}: journal header field {key!r} is "
                f"{actual.get(key)!r}, this run needs {value!r}"
            )


def rng_state(rng: np.random.Generator) -> dict[str, object]:
    """The generator's bit-generator state as a JSON-safe dict."""
    return json.loads(json.dumps(rng.bit_generator.state))


def restore_rng_state(rng: np.random.Generator, state: dict[str, object]) -> None:
    """Restore a state captured by :func:`rng_state` (kind-checked)."""
    expected = type(rng.bit_generator).__name__
    recorded = state.get("bit_generator")
    if recorded != expected:
        raise CheckpointMismatchError(
            f"journal RNG kind {recorded!r} does not match the run's {expected!r}"
        )
    rng.bit_generator.state = state


class CheckpointJournal:
    """Append-only JSON-lines WAL with a validated header.

    Parameters
    ----------
    path:
        Journal file.  A new file gets the header written immediately;
        an existing file is opened for append after the header has been
        validated against ``header`` (so a resumed run keeps extending
        the same journal).
    header:
        Instance-binding dict (see module docstring).  Compared
        key-by-key against an existing journal's header; any difference
        raises :class:`CheckpointMismatchError`.
    resume:
        ``True`` keeps an existing journal and appends after validating
        its header (the kill-and-resume path), cutting off a torn final
        line first; ``False`` (default) starts the journal fresh,
        truncating any stale file at ``path``.
    """

    def __init__(
        self, path: str | Path, header: dict[str, object], resume: bool = False
    ) -> None:
        self.path = Path(path)
        self.header = dict(header)
        self.header["schema"] = SCHEMA
        self.records_written = 0
        if resume and self.path.exists() and self.path.stat().st_size > 0:
            lines = read_json_lines(self.path)
            existing, records = self._parse(self.path, lines)
            validate_header(self.header, existing, str(self.path))
            self.records_written = len(records)
            self._log = JsonLinesLog(
                self.path, keep=lines.end(len(lines.records))
            )
        else:
            self._log = JsonLinesLog(self.path)
            self._write_line(self.header)

    # ------------------------------------------------------------------
    def _write_line(self, payload: dict[str, object]) -> None:
        self._log.append(payload)
        self._log.sync()

    def append_probe(self, record: dict[str, object]) -> None:
        """Durably append one completed-probe record, then honour the
        CI crash hooks (SIGKILL / SIGINT after the configured record
        count)."""
        self._write_line(record)
        self.records_written += 1
        target = os.environ.get(CRASH_ENV)
        if target and self.records_written >= int(target):
            self._log.close()
            os.kill(os.getpid(), signal.SIGKILL)
        target = os.environ.get(SIGINT_ENV)
        if target and self.records_written >= int(target):
            os.kill(os.getpid(), signal.SIGINT)

    def close(self) -> None:
        self._log.close()

    def __enter__(self) -> "CheckpointJournal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    @staticmethod
    def resumable(path: str | Path) -> bool:
        """Whether ``path`` holds a journal worth resuming from.

        A worker can be killed *before* the first fsynced header lands —
        leaving a zero-length file — or mid-header-write, leaving a torn
        first line.  Neither holds any recoverable work, so auto-resume
        callers should treat both as a fresh start instead of erroring
        out and stranding the job file.  Returns ``True`` only when the
        first non-blank line parses as a JSON object (header validity
        itself — schema, instance binding — is still the loader's job,
        so a *mismatched* journal keeps failing loudly rather than
        being silently truncated).
        """
        try:
            records = read_json_lines(path).records
        except OSError:
            return False
        return bool(records) and isinstance(records[0], dict)

    @staticmethod
    def load(path: str | Path) -> tuple[dict[str, object], list[dict[str, object]]]:
        """Read a journal: ``(header, probe_records)``.

        A torn final line — the fsync'd prefix of a record whose write
        was cut by a kill — fails to parse as JSON and is dropped; a
        torn line anywhere *before* the end means the file was edited
        behind the WAL's back and raises
        :class:`CheckpointCorruptError`.
        """
        return CheckpointJournal._parse(Path(path), read_json_lines(path))

    @staticmethod
    def _parse(
        path: Path, lines: JsonLines
    ) -> tuple[dict[str, object], list[dict[str, object]]]:
        if not lines.lines:
            raise CheckpointError(f"{path}: empty checkpoint journal")
        if lines.bad_line is not None and not lines.torn:
            raise CheckpointCorruptError(
                f"{path}: unparseable journal line {lines.bad_line} "
                "(not the final line — the file was modified)"
            )
        parsed = lines.records
        if not parsed:
            raise CheckpointError(f"{path}: no parseable journal lines")
        header = parsed[0]
        schema = header.get("schema")
        if schema == SCHEMA_V2:
            ladder = header.get("ladder")
            if ladder != "binary":
                raise CheckpointMismatchError(
                    f"{path}: journal was written by the {ladder!r} "
                    "threshold ladder; only binary-search journals resume"
                )
            # Presented as v1 so resume-time header validation works
            # uniformly (the file itself is left untouched).
            header = {key: value for key, value in header.items() if key != "ladder"}
            header["schema"] = SCHEMA
        elif schema != SCHEMA:
            raise CheckpointMismatchError(
                f"{path}: schema {schema!r} != {SCHEMA!r}"
            )
        return header, parsed[1:]
