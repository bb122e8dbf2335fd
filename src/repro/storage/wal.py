"""Write-ahead log for the file backend: a log of tapes.

Durability protocol (redo-only WAL, *no-force*, logical redo between
checkpoints):

* **Commit.**  When a writer wake-up's durable scope closes, its *tape*
  — the batches it ran, each with how it ended — and a DELTA record —
  what the wake-up changed in the backend's allocation state and in its
  owner's state — are appended as one transaction ``[OPS, DELTA,
  COMMIT]``, and the log is synced.  That is all a commit writes: no page
  image, and the page file stays as it was.
* **Checkpoint.**  The log carries nothing of it.  The page file takes
  the images of every page dirtied since the last checkpoint, each into
  a fresh extent, and a new directory; a header slot flip commits them
  (:mod:`repro.storage.filebackend`).  Then the log is sealed: renamed
  into the next numbered segment (:mod:`repro.storage.walseg`), whose
  retention rule decides how long it stays.

Every DELTA carries a log sequence number one past its predecessor's,
and the page file's directory records the LSN it includes.  Recovery
(:func:`repro.persist.replay_transaction`) starts from the directory and
re-runs each later tape through the batch executor, checking that the
re-run's DELTA is the logged one byte for byte.  The three crash
windows:

* **torn transaction** (crash mid-append): the log's tail has no valid
  commit record and is discarded; the structure is its last committed
  state.
* **committed, not checkpointed** (the normal state between
  checkpoints): the directory is older than the log; the tapes past its
  LSN are re-run over it.
* **crash inside a checkpoint**: before the header slot is durable, the
  previous directory still stands — the checkpoint wrote only to extents
  it does not reference — and the log still holds every tape past it.
  After, the new directory stands and the tapes at or below its LSN,
  still in the unsealed log, are skipped.

Record format: ``u8 type │ u32 length │ body``.  Types: DELTA (uvarint
LSN + a body the file backend encodes), COMMIT (u32 CRC-32 over every
record byte since the previous commit), OPS (tape rows back to back,
:func:`repro.core.batch.encode_batch`).  The file starts with an 8-byte
magic.
"""

from __future__ import annotations

import os
import struct
import zlib
from dataclasses import dataclass, field
from typing import Any

from ..errors import PersistError, TransientIOError, WALError
from ..obs import trace
from ..obs.metrics import get_registry
from .codec import scan_uvarint
from .disk import Disk

#: Format version 5: tapes only — checkpoints log nothing.  Version 4
#: logged a checkpoint's page images (PUT) and directory (ABSOLUTE), with
#: rows of LIDs and block pointers as zigzag deltas; version 3 the same
#: with plain varint rows; version 2 journaled images with every commit.
MAGIC = b"BOXWAL05"

REC_DELTA = 2
REC_COMMIT = 3
REC_OPS = 5

_HEADER = struct.Struct(">BI")  # record type, body length


@dataclass
class WALTransaction:
    """One decoded committed transaction: a commit's tape and DELTA."""

    #: The OPS record body (tape rows); None when there is none.
    ops: bytes | None = None
    #: The DELTA record's LSN; None when the transaction carries none.
    lsn: int | None = None
    #: The DELTA record body, LSN varint included.
    body: bytes = b""


@dataclass
class WALScan:
    """Result of scanning a log file: committed transactions in order,
    plus whether a torn (uncommitted) tail was found and discarded."""

    transactions: list[WALTransaction] = field(default_factory=list)
    torn_tail: bool = False
    tail_bytes: int = 0
    #: Why the tail was discarded (empty when the log scanned clean) —
    #: surfaced so recovery diagnostics never silently swallow a reason.
    tail_reason: str = ""
    #: Absolute offset (magic included when present) where the committed
    #: prefix ends — a clean cut point: truncating the log here drops
    #: exactly the torn tail, and a replication follower resumes its
    #: incremental parse from here.
    committed_bytes: int = 0

    @property
    def committed(self) -> int:
        return len(self.transactions)


def _encode_record(rec_type: int, body: bytes) -> bytes:
    return _HEADER.pack(rec_type, len(body)) + body


class WALWriter:
    """Appends transactions to a log file through the owning backend's
    :class:`Disk`, whose fault funnel every record goes through — so a
    simulated crash can tear a record mid-append."""

    def __init__(self, path: str, disk: Disk) -> None:
        self.path = path
        self._disk = disk
        self._handle: Any = None
        self.records_written = 0
        self.bytes_written = 0

    def _ensure_open(self) -> None:
        if self._handle is None:
            fresh = not os.path.exists(self.path) or os.path.getsize(self.path) == 0
            self._handle = self._disk.open(self.path, "ab")
            if fresh:
                self._disk.write(self._handle, MAGIC)

    def append_transaction(self, records: dict[int, bytes]) -> None:
        """Append one transaction: ``records`` (record type → body, in
        order: the OPS record, then the DELTA record, whose body starts
        with its uvarint LSN) and COMMIT, then sync the log (the hooked
        barrier, :meth:`~repro.storage.disk.Disk.sync`).

        A :class:`~repro.errors.TransientIOError` raised mid-transaction
        or by the sync (an injected retryable fault) rolls the log back to
        the clean pre-transaction boundary before propagating, so the
        caller can re-run the whole commit against an uncorrupted log — and
        one who does not leaves no transaction behind that it believes
        failed.  Crash faults (:class:`~repro.errors.CrashError`) do *not*
        roll back — the torn tail they leave is exactly what recovery must
        cope with.
        """
        with trace.span("wal.append") as span:
            self._disk.hit("wal.append")
            self._ensure_open()
            records_before = self.records_written
            bytes_before = self.bytes_written
            start_offset = self._handle.tell()
            crc = 0
            try:
                for rec_type, body in records.items():
                    record = _encode_record(rec_type, body)
                    crc = zlib.crc32(record, crc)
                    self._write(record)
                self._write(_encode_record(REC_COMMIT, struct.pack(">I", crc)))
                self._disk.sync(self._handle)
            except TransientIOError:
                self._rollback_to(start_offset, records_before, bytes_before)
                raise
            records = self.records_written - records_before
            wal_bytes = self.bytes_written - bytes_before
            if span.recording:
                span.add("wal.records", records)
                span.add("wal.bytes", wal_bytes)
        registry = get_registry()
        registry.counter(
            "repro_wal_transactions_total", help="WAL transactions appended"
        ).inc()
        registry.counter(
            "repro_wal_records_total", help="WAL records appended"
        ).inc(records)
        registry.counter(
            "repro_wal_bytes_total", help="bytes appended to the WAL"
        ).inc(wal_bytes)

    def append_raw(self, data: bytes) -> None:
        """Append and sync bytes that already are log records — a
        follower's mirror of its primary's segment, magic included —
        around the fault funnel and the record counters."""
        if self._handle is None:
            self._handle = self._disk.open(self.path, "ab")
        self._disk.put(self._handle, data)
        self._disk.sync_raw(self._handle)

    def _write(self, record: bytes) -> None:
        self._disk.write(self._handle, record)
        self.records_written += 1
        self.bytes_written += len(record)

    def _rollback_to(self, offset: int, records: int, bytes_written: int) -> None:
        """Discard a partially appended transaction (transient fault)."""
        try:
            self._handle.flush()
        except OSError:  # pragma: no cover - flush of a broken handle
            pass
        self._disk.truncate(self._handle, offset)
        self._handle.seek(0, os.SEEK_END)
        self.records_written = records
        self.bytes_written = bytes_written

    def trim(self, offset: int) -> None:
        """Cut the log at ``offset`` and sync it: drop a torn tail, keep
        the committed prefix (recovery's step — the committed records
        stay in place: they are the history the next seal puts into a
        segment — and a follower's, back to its applied prefix)."""
        self.close()
        with self._disk.open(self.path, "r+b") as handle:
            self._disk.truncate(handle, offset)
            self._disk.sync_raw(handle)

    def seal_to(self, target: str) -> None:
        """Atomically rename the live log to ``target`` (a checkpoint's
        last step).

        The file is synced before the rename and the directory after it
        (through the disk's fsync policy), so the sealed segment is
        durable under its final name: a seal lost to a crash leaves the
        replayed log standing, which recovery skips by LSN but must still
        scan.  ``wal.truncate`` fires at entry, while the log still stands.
        """
        self._disk.hit("wal.truncate")
        self.close()
        with self._disk.open(self.path, "ab") as handle:
            self._disk.sync_raw(handle)
        self._disk.rename(self.path, target)

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None


def scan_wal(path: str) -> WALScan:
    """Decode a log file into committed transactions plus torn-tail info.

    A missing or empty file scans as zero transactions.  Structurally
    impossible content (bad magic, an unknown record type) raises
    :class:`~repro.errors.WALError`; an incomplete or CRC-mismatched
    tail is expected after a crash and is reported, not raised — and so
    is a record header of zeros, what an unsynced write a crash lost
    leaves behind a later one that landed.
    """
    if not os.path.exists(path) or os.path.getsize(path) == 0:
        return WALScan()
    with open(path, "rb") as handle:
        data = handle.read()
    return scan_wal_bytes(data, source=path)


def scan_wal_bytes(
    data: bytes,
    *,
    expect_magic: bool = True,
    source: str = "<bytes>",
    count_tail: bool = True,
) -> WALScan:
    """Decode raw log bytes (the worker behind :func:`scan_wal`).

    ``expect_magic=False`` parses a mid-stream slice (a replication
    follower resuming after the magic it already consumed).
    ``count_tail=False`` suppresses the torn-tail metric: an incomplete
    tail is *normal* for a follower polling a live log, not a recovery
    event.  ``scan.committed_bytes`` is where the committed prefix ends —
    the follower's resume offset, and recovery's trim point.
    """
    scan = WALScan()
    if not data:
        return scan
    if expect_magic:
        if data[: len(MAGIC)] != MAGIC:
            if data[: len(MAGIC)] in (b"BOXWAL01", b"BOXWAL02", b"BOXWAL03", b"BOXWAL04"):
                raise WALError(
                    f"{source} is a format-version-{data[7] - 48} write-ahead "
                    "log; this build reads version 5"
                )
            if MAGIC.startswith(data[: len(MAGIC)]):
                # The very first physical write (the magic itself) was torn:
                # nothing was ever committed, the whole file is a torn tail.
                scan.torn_tail = True
                scan.tail_bytes = len(data)
                scan.tail_reason = "torn magic"
                if count_tail:
                    _count_torn_tail(scan)
                return scan
            raise WALError(f"{source} is not a write-ahead log (bad magic)")
        offset = len(MAGIC)
    else:
        offset = 0
    pending = WALTransaction()
    pending_start = offset
    crc = 0
    while offset < len(data):
        if offset + _HEADER.size > len(data):
            scan.tail_reason = "torn record header"
            break
        rec_type, length = _HEADER.unpack_from(data, offset)
        body_start = offset + _HEADER.size
        if rec_type == 0 and length == 0:
            scan.tail_reason = "zero-filled record header"
            break
        if rec_type not in (REC_DELTA, REC_COMMIT, REC_OPS):
            raise WALError(f"{source}: impossible record type {rec_type}")
        if body_start + length > len(data):
            scan.tail_reason = "torn record body"
            break
        body = data[body_start : body_start + length]
        record = data[offset : body_start + length]
        if rec_type == REC_COMMIT:
            if length != 4 or struct.unpack(">I", body)[0] != crc:
                scan.tail_reason = "commit CRC mismatch"
                break
            scan.transactions.append(pending)
            pending = WALTransaction()
            crc = 0
            offset = body_start + length
            pending_start = offset
            continue
        crc = zlib.crc32(record, crc)
        if rec_type == REC_OPS:
            pending.ops = body
        else:  # REC_DELTA
            # A truncated-then-overwritten tail can leave a DELTA whose
            # body length checks out but whose LSN varint is cut short;
            # scan_uvarint raises PersistError on that.  The record is by
            # construction uncommitted (a commit CRC over it could not have
            # verified), so it is a torn tail to discard — not a reason to
            # fail recovery of the committed prefix.
            try:
                pending.lsn = scan_uvarint(body, 0)[0]
            except PersistError:
                scan.tail_reason = "corrupt DELTA body"
                break
            pending.body = body
        offset = body_start + length
    scan.committed_bytes = pending_start
    if pending_start < len(data):
        scan.torn_tail = True
        scan.tail_bytes = len(data) - pending_start
        if not scan.tail_reason:
            scan.tail_reason = "uncommitted trailing records"
        if count_tail:
            _count_torn_tail(scan)
    else:
        scan.tail_reason = ""
    return scan


def _count_torn_tail(scan: WALScan) -> None:
    """Publish a discarded tail to the metrics registry (never silently)."""
    get_registry().counter(
        "repro_wal_torn_tail_skipped_total",
        help="WAL tails discarded during recovery scan",
        labels={"reason": scan.tail_reason},
    ).inc()
