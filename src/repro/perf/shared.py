"""Fleet-shared marked-set table store: mmap segments, crash-safe publish.

The service layer runs every job in its own worker subprocess, so the
per-process :class:`~repro.perf.MarkedSetCache` starts cold on every
request — identical graphs submitted by different tenants re-enumerate
the same ``2^n`` mask space over and over.  This module gives the fleet
one shared tier below the in-process LRU: a directory of mmap-backed
segments, one per ``(structural fingerprint, k)``, that any worker can
**attach** to with zero copying and any worker can **publish** into
after a cold build.

Design constraints, in order:

* **Never a torn read.**  A segment becomes visible only through an
  atomic rename of a fully written, fsynced temp file; a writer
  SIGKILLed mid-publish leaves either the old segment or nothing.
  Readers additionally validate magic bytes, a length-consistent
  header, and a trailer sentinel before trusting a file — a corrupt or
  truncated segment is *rejected* (the caller falls back to local
  enumeration), never partially served.
* **Zero-copy attach.**  The mask partition (``_by_size``) is mapped
  read-only via :class:`numpy.memmap`; attaching costs a header parse
  and an mmap call, not a table copy.  Attached segments are kept in a
  small LRU so long-lived readers don't accumulate mappings for every
  fingerprint they ever saw.
* **Byte identity.**  The serialized arrays are the table's own
  ``_by_size`` / ``_offsets`` buffers verbatim, so an attached table is
  indistinguishable — dtype, order, offsets — from the table the
  publisher built.  Any solve running off a shared hit produces the
  same subset, oracle calls, gate units, and ledger claims as a cold
  solve.

The store never *requires* coordination: publish is idempotent (same
key ⇒ byte-identical content, because tables are pure functions of the
structural fingerprint and ``k``), so concurrent publishers can only
race to install identical bytes and the loser simply skips.
"""

from __future__ import annotations

import itertools
import json
import os
import signal
import struct
import threading
from collections import OrderedDict
from pathlib import Path

import numpy as np

from .cache import MarkedSetTable

__all__ = [
    "PUBLISH_KILL_ENV",
    "SHARED_CACHE_ENV",
    "SegmentError",
    "SharedTableStore",
]

#: Worker-subprocess hook: the service sets this to the shared store
#: directory and the runner attaches its job cache to it.
SHARED_CACHE_ENV = "REPRO_SHARED_CACHE_DIR"

#: Chaos hook: SIGKILL the process mid-publish (after the temp segment
#: is written, *before* the atomic rename) on the Nth publish attempt.
#: Exercises the crash-safety contract: readers must see the old
#: segment or nothing, never a torn file.
PUBLISH_KILL_ENV = "REPRO_SHARED_KILL_ON_PUBLISH"

_MAGIC = b"RPROSHM2"
_TRAILER = b"RPROEND."
_ALIGN = 64  # payload alignment, so mmap'd arrays start on a cache line


class SegmentError(ValueError):
    """A segment file failed validation (torn, truncated, or foreign)."""


def _pad(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


_TMP_SEQ = itertools.count()


def _tmp_name(final: Path) -> Path:
    """Unique-per-writer temp path: pid + thread + sequence, so
    concurrent publishers (even threads sharing a pid) never clobber
    each other's in-flight segment."""
    tag = f"{os.getpid()}.{threading.get_ident()}.{next(_TMP_SEQ)}"
    return final.with_name(f".{final.name}.{tag}.tmp")


class SharedTableStore:
    """Cross-process segment store for :class:`MarkedSetTable` partitions.

    Parameters
    ----------
    root:
        Store directory (created if missing).  Typically the service
        workdir's ``shared-cache/`` subdirectory, shared by every
        worker subprocess of one ``qmkp serve`` — and by successive
        service restarts against the same workdir.
    max_attached:
        Attached-segment LRU bound: mappings for at most this many keys
        are kept alive; older attachments are dropped (the mmap closes
        when the last table referencing it is garbage collected).
    """

    def __init__(self, root: str | Path, max_attached: int = 8) -> None:
        if max_attached < 1:
            raise ValueError(f"max_attached must be >= 1, got {max_attached}")
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.max_attached = max_attached
        self.attaches = 0
        self.publishes = 0
        self.torn_rejected = 0
        self._attached: OrderedDict[str, tuple[int, MarkedSetTable]] = OrderedDict()
        self._publish_attempts = 0
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Keys and paths
    # ------------------------------------------------------------------
    @staticmethod
    def key(fingerprint: str, k: int) -> str:
        """Filename-safe store key for ``(fingerprint, k)``."""
        return f"{fingerprint}-k{k}"

    def segment_path(self, fingerprint: str, k: int) -> Path:
        return self.root / f"{self.key(fingerprint, k)}.seg"

    def generation_path(self, fingerprint: str, k: int) -> Path:
        return self.root / f"{self.key(fingerprint, k)}.gen"

    def generation(self, fingerprint: str, k: int) -> int:
        """Published generation for the key (0 when never published)."""
        try:
            return int(self.generation_path(fingerprint, k).read_text())
        except (OSError, ValueError):
            return 0

    # ------------------------------------------------------------------
    # Publish (single-writer protocol: tmp -> fsync -> rename -> gen)
    # ------------------------------------------------------------------
    def publish(
        self,
        fingerprint: str,
        k: int,
        table: MarkedSetTable,
        kernel: str | None = None,
    ) -> bool:
        """Install ``table`` as the segment for ``(fingerprint, k)``.

        Returns True when a segment was written, False when a valid
        segment already exists (the content would be byte-identical —
        tables are pure functions of the key — so the second publisher
        skips).  The write is crash-safe: the full segment is written
        to a uniquely named temp file and fsynced before one atomic
        rename makes it visible, then the generation file is bumped the
        same way.  A SIGKILL at any point leaves the previous state.
        """
        with self._lock:
            return self._publish_locked(fingerprint, k, table, kernel)

    def _publish_locked(self, fingerprint, k, table, kernel) -> bool:
        final = self.segment_path(fingerprint, k)
        if final.exists():
            try:
                self._validate(final, fingerprint, k)
                return False  # identical content is already published
            except (OSError, SegmentError):
                pass  # torn/foreign leftover: overwrite it below
        self._publish_attempts += 1

        by_size = np.ascontiguousarray(table._by_size)
        offsets = np.ascontiguousarray(table._offsets)
        header = {
            "fingerprint": fingerprint,
            "k": int(k),
            "num_vertices": int(table.num_vertices),
            "num_marked": int(by_size.size),
            "offsets_len": int(offsets.size),
            "dtype": str(by_size.dtype),
            "kernel": kernel,
            "generation": self.generation(fingerprint, k) + 1,
        }
        header_bytes = json.dumps(header, sort_keys=True).encode("ascii")
        payload_at = _pad(len(_MAGIC) + 8 + len(header_bytes))

        tmp = _tmp_name(final)
        try:
            with open(tmp, "wb") as fh:
                fh.write(_MAGIC)
                fh.write(struct.pack("<Q", len(header_bytes)))
                fh.write(header_bytes)
                fh.write(b"\0" * (payload_at - fh.tell()))
                fh.write(by_size.tobytes())
                fh.write(offsets.tobytes())
                fh.write(_TRAILER)
                fh.flush()
                os.fsync(fh.fileno())
            self._maybe_chaos_kill()
            os.replace(tmp, final)
        finally:
            tmp.unlink(missing_ok=True)
        self._bump_generation(fingerprint, k, header["generation"])
        self.publishes += 1
        return True

    def _bump_generation(self, fingerprint: str, k: int, generation: int) -> None:
        path = self.generation_path(fingerprint, k)
        tmp = _tmp_name(path)
        try:
            with open(tmp, "w", encoding="ascii") as fh:
                fh.write(f"{generation}\n")
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)

    def _maybe_chaos_kill(self) -> None:
        target = os.environ.get(PUBLISH_KILL_ENV)
        if target and self._publish_attempts >= int(target):
            os.kill(os.getpid(), signal.SIGKILL)

    # ------------------------------------------------------------------
    # Attach (zero-copy, validated, LRU-bounded)
    # ------------------------------------------------------------------
    def attach(
        self, fingerprint: str, k: int, num_vertices: int | None = None
    ) -> MarkedSetTable | None:
        """The published table for ``(fingerprint, k)``, or None.

        Never raises on a bad segment: a torn, truncated, or foreign
        file counts toward ``torn_rejected`` and returns None so the
        caller degrades to local enumeration.  Successful attaches are
        cached per generation; a republished key re-attaches.
        """
        with self._lock:
            key = self.key(fingerprint, k)
            generation = self.generation(fingerprint, k)
            cached = self._attached.get(key)
            if cached is not None and cached[0] == generation:
                self._attached.move_to_end(key)
                self.attaches += 1
                return cached[1]
            path = self.segment_path(fingerprint, k)
            try:
                table = self._load(path, fingerprint, k, num_vertices)
            except (OSError, SegmentError):
                if path.exists():
                    self.torn_rejected += 1
                return None
            self._attached[key] = (generation, table)
            self._attached.move_to_end(key)
            while len(self._attached) > self.max_attached:
                self._attached.popitem(last=False)
            self.attaches += 1
            return table

    def _validate(self, path: Path, fingerprint: str, k: int) -> dict:
        """Parse and length-check a segment header; raises SegmentError."""
        size = path.stat().st_size
        with open(path, "rb") as fh:
            magic = fh.read(len(_MAGIC))
            if magic != _MAGIC:
                raise SegmentError(f"{path}: bad magic {magic!r}")
            (header_len,) = struct.unpack("<Q", fh.read(8))
            if header_len > size:
                raise SegmentError(f"{path}: header length overruns file")
            header = json.loads(fh.read(header_len).decode("ascii"))
            payload_at = _pad(len(_MAGIC) + 8 + header_len)
            expected = (
                payload_at
                + 8 * int(header["num_marked"])
                + 8 * int(header["offsets_len"])
                + len(_TRAILER)
            )
            if size != expected:
                raise SegmentError(
                    f"{path}: size {size} != expected {expected} (truncated?)"
                )
            fh.seek(expected - len(_TRAILER))
            if fh.read(len(_TRAILER)) != _TRAILER:
                raise SegmentError(f"{path}: missing trailer sentinel")
        if header["fingerprint"] != fingerprint or int(header["k"]) != k:
            raise SegmentError(
                f"{path}: segment is for ({header['fingerprint']}, "
                f"k={header['k']}), requested ({fingerprint}, k={k})"
            )
        if header.get("dtype") != "int64":
            raise SegmentError(f"{path}: unsupported dtype {header.get('dtype')!r}")
        header["payload_at"] = payload_at
        return header

    def _load(
        self, path: Path, fingerprint: str, k: int, num_vertices: int | None
    ) -> MarkedSetTable:
        header = self._validate(path, fingerprint, k)
        n = int(header["num_vertices"])
        if num_vertices is not None and n != num_vertices:
            raise SegmentError(
                f"{path}: segment has n={n}, caller expects n={num_vertices}"
            )
        num_marked = int(header["num_marked"])
        payload_at = int(header["payload_at"])
        if num_marked:
            by_size = np.memmap(
                path, dtype=np.int64, mode="r", offset=payload_at,
                shape=(num_marked,),
            )
        else:
            by_size = np.empty(0, dtype=np.int64)
        with open(path, "rb") as fh:
            fh.seek(payload_at + 8 * num_marked)
            raw = fh.read(8 * int(header["offsets_len"]))
        offsets = np.frombuffer(raw, dtype=np.int64)
        return MarkedSetTable.from_partitions(n, by_size, offsets)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        """Number of published segments currently in the store."""
        return sum(1 for _ in self.root.glob("*.seg"))

    def stats(self) -> dict[str, int]:
        return {
            "attaches": self.attaches,
            "publishes": self.publishes,
            "torn_rejected": self.torn_rejected,
            "attached_entries": len(self._attached),
            "segments": len(self),
        }
