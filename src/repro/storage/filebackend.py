"""File-backed block storage: real fixed-size pages + WAL + recovery.

The :class:`FileBackend` stores every block as one fixed-size page in a
single file, round-tripping payloads through the live-payload codec of
:mod:`repro.storage.codec`.  Layout::

    ┌──────────┬────────────────┬────────┬────────┬─────┬───────────┐
    │ magic 8B │ header (fixed) │ page 1 │ page 2 │ ... │ directory │
    └──────────┴────────────────┴────────┴────────┴─────┴───────────┘

* The **directory** is the structure's complete description minus block
  payloads: page geometry, the LSN it includes, the allocation state
  (next id, free list in recycling order, ids with a durable image), then
  the section of the backend's one ``owner`` (:mod:`repro.storage.owner`
  — what makes reopening yield a working scheme, not just bytes).  It is
  one binary, packed-varint image written just past the last page, and
  only by a checkpoint; the fixed **header** holds its offset, length
  and CRC-32 under a CRC of its own.
* A **page** is ``u32 payload length + encoded payload``, unpadded, at
  the start of a ``page_bytes`` slot (:func:`default_page_bytes`) at a
  fixed offset, so a block write is one positioned write.  Bytes past
  the image in a slot are stale and never read: reads trim by length.

Durability runs through the write-ahead log (:mod:`repro.storage.wal`):
a commit appends the tape of the batches that dirtied its blocks (OPS)
and a DELTA record — what the commit changed in the directory, the
owner's part last — and syncs the log; nothing else, and no page is
encoded.  A commit without a tape (blocks dirtied outside a batch, or a
batch ended by an error a re-run cannot reproduce) is a checkpoint.  A checkpoint (explicit, or taken by :meth:`FileBackend.commit`
itself once :data:`CHECKPOINT_TAPE_BYTES` of tape have been logged since
the last one) logs the image of every page dirtied since the last one,
writes them and the directory back and seals the log into a numbered
segment, which one retention rule keeps or deletes
(:mod:`repro.storage.walseg`).  Opening a file starts from the newer of
the directory and the log's last ABSOLUTE record (:func:`log_base`) and
holds the tapes past it until :func:`repro.persist.replay_transaction` —
the one replay recovery, point-in-time restore and replication followers
share — re-runs them under :meth:`FileBackend.replaying`.

**Consistency model.**  Decoded payloads live in an object table and are
mutated in place by the tree code, exactly like the memory backend — the
object table is the "buffer pool" and keeps object identity stable within
a process.  Serialization happens at checkpoint (encode) and on a cold
read (decode); a page dirtied since the last checkpoint lives only in the
table (and in the tapes that re-create it) until the next one writes it
back.  Only *committed* state survives a crash: an operation's mutations
become durable when the operation scope closes and :meth:`commit` runs.

**Fault injection.**  Install a :class:`~repro.faults.FaultInjector`
(``backend.fault_injector = injector`` or
:meth:`FileBackend.install_faults`) and the backend's
:class:`~repro.storage.disk.Disk` hits it at the named hook points:
``backend.raw_write`` on every physical write (WAL records, pages, the
directory — one funnel), ``backend.page_write`` and
``backend.superblock`` just before a page image and the directory go
out (inside checkpoints only), ``backend.fsync`` before each hooked
``os.fsync``, ``backend.commit`` on commit entry.  Every crash-type
fault at any of its hooks (the WAL's included) leaves the backend
refusing all further writes until reopened (:meth:`Disk.hit`).
"""

from __future__ import annotations

import os
import struct
import zlib
from contextlib import contextmanager
from itertools import accumulate
from typing import Any, Iterable, Iterator

from ..config import BoxConfig
from ..errors import (
    PersistError,
    ProtocolError,
    RecoveryError,
    StorageError,
    TransientIOError,
)
from ..obs import trace
from ..obs.metrics import get_registry
from .backend import StorageBackend, Tape
from .codec import (
    append_uvarints,
    decode_block_payload,
    encode_block_payload,
    max_payload_bytes,
    scan_uvarint,
    scan_uvarints,
)
from .disk import Disk
from .owner import FoldedOwner
from .wal import MAGIC as WAL_MAGIC
from .wal import WALTransaction, WALWriter, scan_wal
from .walseg import (
    apply_retention,
    checkpoint_image_path,
    read_wal_manifest,
    segment_path,
)

#: Format version 3: page images code rows of LIDs and block pointers as
#: zigzag deltas (:mod:`repro.storage.codec`).  Version 2 had the same
#: binary directory past the last page with plain varint rows; version 1
#: kept a JSON superblock and rewrote it with every commit.
MAGIC = b"BOXPAGE3"

#: Fixed byte length of the header region; with the magic, pages start
#: at offset 4096.
HEADER_BYTES = 4088

#: Tape bytes (OPS record bodies) a backend logs before
#: :meth:`FileBackend.commit` checkpoints on its own: what bounds the
#: tapes reopening re-runs, a function of tape logged only, never of time.
#: Sized from the measured replay cost of point edits: re-running logged
#: 3-op W-BOX submits (1 KB blocks, 200k labels, every page cold; 19–27
#: tape bytes a submit) costs 15–40 µs per tape byte on a 2-vCPU host, so
#: 0.1–0.3 s of replay stands behind a reopen.  Measured again with
#: delta-coded pages: 500 / 1,000 / 2,000 submits reopen in 154–164 /
#: 329–333 / 518–608 ms (11–14 µs a tape byte; plain varint rows: 169–254
#: / 366–520 / 538–638 ms on the same host) — replayed W-BOX splits, not
#: first-touch decodes, are most of it.  A range op's row is a few
#: bytes for O(range) work — 64-label subtree inserts and range deletes
#: re-run at ~130 and ~100 µs per byte — so range-heavy tapes replay
#: several times longer per byte.
CHECKPOINT_TAPE_BYTES = 8192

_PAGE_HEADER = struct.Struct(">I")  # payload length

#: Object-table miss marker (``None`` is a legal payload).
_ABSENT = object()
_HEADER = struct.Struct(">QII")  # directory offset, length, CRC-32
_CRC = struct.Struct(">I")  # of the header itself


def encode_directory(state: dict[str, Any]) -> bytes:
    """A directory dict as bytes: the at-rest image, and equally the body
    of a checkpoint's ABSOLUTE log record (its first varint is the LSN).

    The backend's fields are counted varint rows (``on_disk`` sorted, as
    gaps); the owner's section, ``state["owner"].image()``, closes the
    image as the owner wrote it.
    """
    on_disk = sorted(state["on_disk"])
    flat = [state["lsn"], state["page_bytes"], state["next_id"]]
    flat.append(len(state["free_ids"]))
    flat += state["free_ids"]
    flat.append(len(on_disk))
    flat += [b - a for a, b in zip([0] + on_disk, on_disk)]
    out = bytearray()
    append_uvarints(out, flat)
    return bytes(out) + state["owner"].image()


def decode_directory(data: bytes) -> dict[str, Any]:
    """Inverse of :func:`encode_directory`, the image's tail handed to a
    :class:`~repro.storage.owner.FoldedOwner`; raises
    :class:`~repro.errors.PersistError` on a malformed image."""
    (lsn, page_bytes, next_id, count), pos = scan_uvarints(data, 0, 4)
    free_ids, pos = scan_uvarints(data, pos, count)
    count, pos = scan_uvarint(data, pos)
    gaps, pos = scan_uvarints(data, pos, count)
    return {
        "lsn": lsn,
        "page_bytes": page_bytes,
        "next_id": next_id,
        "free_ids": free_ids,
        "on_disk": set(accumulate(gaps)),
        "owner": FoldedOwner(data[pos:]),
    }


def _owner_row(body: bytes) -> Iterator[int]:
    """A DELTA body's owner part: its row past the backend's own fields
    (next-id step, pops, then the pushed and dropped id rows)."""
    (_lsn, count), pos = scan_uvarints(body, 0, 2)
    row = scan_uvarints(body, pos, count)[0]
    start = 3 + row[2]
    return iter(row[start + 1 + row[start]:])


def log_base(
    directory: dict[str, Any] | None, transactions: list[WALTransaction], path: str
) -> tuple[dict[str, Any], str, list[WALTransaction]]:
    """Where a page file's log starts its at-rest ``directory`` from.

    The base is the directory (``None``: torn or corrupt) or the log's
    last ABSOLUTE record, whichever is newer.  Returns the base state,
    which it was (``"directory"`` or ``"wal"``) and the logged tapes past
    it, in order, for :func:`repro.persist.replay_transaction` to re-run
    (the ones at or below the base's LSN — a log that outlived its
    checkpoint — are skipped; a gap is a :class:`~repro.errors.RecoveryError`).
    """
    flushed_lsn = directory["lsn"] if directory is not None else -1
    base = None
    for txn in transactions:
        if txn.lsn is None:
            raise RecoveryError(f"{path}: a committed transaction carries no DELTA record")
        if txn.absolute and txn.lsn > flushed_lsn:
            base = txn
    if base is None and directory is None:
        raise RecoveryError(
            f"{path}: directory unreadable and the log holds no "
            "absolute record to replace it"
        )
    state = directory if base is None else decode_directory(base.body)
    tapes = [txn for txn in transactions if not txn.absolute and txn.lsn > state["lsn"]]
    for lsn, txn in enumerate(tapes, state["lsn"] + 1):
        if txn.lsn != lsn or txn.ops is None:
            raise RecoveryError(
                f"{path}: log transaction {txn.lsn} cannot follow state {lsn - 1}"
                if txn.lsn != lsn else f"{path}: log transaction {lsn} carries no tape"
            )
    return state, "directory" if base is None else "wal", tapes


def read_directory(path: str) -> dict[str, Any] | None:
    """Read a page file's at-rest directory without opening a backend.

    Read-only and recovery-free: diagnostics (``repro info``) must not
    mutate the file they describe.  Raises
    :class:`~repro.errors.PersistError` on bad magic; returns ``None``
    when the header or the directory is torn or corrupt.
    """
    with open(path, "rb") as handle:
        magic = handle.read(len(MAGIC))
        if magic in (b"BOXPAGE1", b"BOXPAGE2"):
            raise PersistError(
                f"{path} is a format-version-{magic[-1] - 48} page file; "
                "this build reads version 3"
            )
        if magic != MAGIC:
            raise PersistError(f"{path} is not a page file (bad magic)")
        image = handle.read(_HEADER.size + _CRC.size)
        if len(image) < _HEADER.size + _CRC.size or _CRC.unpack_from(
            image, _HEADER.size
        ) != (zlib.crc32(image[: _HEADER.size]),):
            return None
        offset, length, crc = _HEADER.unpack_from(image)
        handle.seek(offset)
        blob = handle.read(length)
    if len(blob) != length or zlib.crc32(blob) != crc:
        return None
    try:
        return decode_directory(blob)
    except PersistError:
        return None


def default_page_bytes(config: BoxConfig, value_bits: int | None = None) -> int:
    """Page slot size: the length header plus the longest image a full
    node under ``config`` encodes to when stored label values are at
    most ``value_bits`` wide (:func:`~repro.storage.codec.max_payload_bytes`;
    about 1.7x the block at the default widths).  A scheme's own slot is
    :func:`repro.core.registry.scheme_page_bytes`.  :meth:`FileBackend.commit`
    refuses a longer image with a :class:`~repro.errors.StorageError`."""
    return _PAGE_HEADER.size + max_payload_bytes(config, value_bits)


class FileBackend(StorageBackend):
    """Block residency in a real page file with WAL durability.

    Parameters
    ----------
    path:
        The page file.  Created if missing; otherwise opened on the base
        its directory and write-ahead log (``path + ".wal"``) name.
    page_bytes:
        Fixed page slot size, :func:`default_page_bytes` when omitted for a
        new file.  Must match the file's on opening an existing file (omit
        to accept the stored geometry).
    fsync:
        Issue ``os.fsync`` at the durability points: once per commit (the
        log), and at a checkpoint's barriers.  Off by default: simulated
        crashes (the only kind tests can make) do not lose OS-buffered
        writes, and benchmarks should measure the protocol, not the
        host's disk.
    """

    def __init__(
        self,
        path: str,
        page_bytes: int | None = None,
        fsync: bool = False,
    ) -> None:
        #: Fsync policy, fault injector, crash state, bytes written.
        self._disk = Disk(fsync)
        super().__init__()
        self.path = path
        self.wal_path = path + ".wal"
        #: Segment bookkeeping (see :mod:`repro.storage.walseg`).
        self.wal_manifest: dict[str, Any] = read_wal_manifest(path)
        #: Decoded live payloads (the buffer pool); identity-stable.
        self._objects: dict[int, Any] = {}
        #: Ids with a page image (in the page file, or in the log's last
        #: checkpoint record).
        self._on_disk: set[int] = set()
        #: Blocks dirtied since the last checkpoint: pinned in the object
        #: table, the next checkpoint encodes and writes them back.
        self._dirty: set[int] = set()
        #: Logged tapes past the base that opening found, for
        #: :func:`repro.persist.replay_transaction` to take and re-run.
        self.tapes: list[WALTransaction] = []
        #: The logged transaction a replay is re-creating, else None.
        self._replay: WALTransaction | None = None
        #: Tape bytes logged since the last checkpoint.
        self._tape_bytes = 0
        #: Whether the state holds changes no log record carries (blocks
        #: no tape re-creates, or what a failed checkpoint consumed): the
        #: next record must then restate it, at a new LSN.
        self._unlogged = False
        #: LSN of the last transaction made durable, and of the at-rest
        #: directory.
        self.lsn = 0
        self._directory_lsn = 0
        # The allocation delta since the last journaled transaction,
        # recorded by allocate/free/_discard as they happen: free-list
        # pops reaching below this delta's own pushes, the pushes still
        # standing, and ids that lost their durable image.
        self._journaled_next_id = 1
        self._pops = 0
        self._pushed: list[int] = []
        self._dropped: list[int] = []
        #: The owner of every directory image's and DELTA's tail
        #: (:mod:`repro.storage.owner`): what the base held, until
        #: :func:`repro.persist.checkpoint_scheme` installs a journal.
        self.owner: Any = FoldedOwner()
        # Physical-I/O counters (the honest cost the logical IOStats models).
        self.pages_journaled = 0
        self.page_writes = 0
        self.page_reads = 0
        self.commits = 0
        #: Filled when opening an existing file: what recovery found/did.
        self.recovery_report: dict[str, Any] = {}

        self._wal = WALWriter(self.wal_path, self._disk)
        existing = os.path.exists(self.path) and os.path.getsize(self.path) > 0
        if existing:
            self._handle = self._disk.open(self.path, "r+b")
            self._open_existing(page_bytes)
        else:
            self.page_bytes = (
                page_bytes if page_bytes is not None else default_page_bytes(BoxConfig())
            )
            self._handle = self._disk.open(self.path, "w+b")
            self._disk.write_at(self._handle, 0, MAGIC)
            self._write_directory(encode_directory(self._directory()))
            self._disk.sync(self._handle)

    # ------------------------------------------------------------------
    # the disk's policy, faults and counter
    # ------------------------------------------------------------------

    @property
    def fault_injector(self) -> Any:
        return self._disk.fault_injector

    @fault_injector.setter
    def fault_injector(self, injector: Any) -> None:
        self._disk.fault_injector = injector

    @property
    def bytes_written(self) -> int:
        """Bytes through the physical-write funnel (:meth:`Disk.write`)."""
        return self._disk.bytes_written

    def install_faults(self, injector: Any) -> "FileBackend":
        """Attach a :class:`~repro.faults.FaultInjector` (or ``None``)."""
        self.fault_injector = injector
        return self

    # ------------------------------------------------------------------
    # directory
    # ------------------------------------------------------------------

    def _directory(self) -> dict[str, Any]:
        """The current directory (lists shared with the live state)."""
        return {
            "lsn": self.lsn,
            "page_bytes": self.page_bytes,
            "next_id": self._next_id,
            "free_ids": self._free_ids,
            "on_disk": self._on_disk,
            "owner": self.owner,
        }

    def _write_directory(self, blob: bytes) -> None:
        """Put the directory image just past the last page, then point
        the header at it.  Not atomic, and later page growth overwrites
        the image: a checkpoint makes the same bytes durable in the log
        first, and recovery falls back to that record."""
        self._disk.hit("backend.superblock", len(blob))
        offset = self._page_offset(self._next_id)
        self._disk.write_at(self._handle, offset, blob)
        header = _HEADER.pack(offset, len(blob), zlib.crc32(blob))
        header += _CRC.pack(zlib.crc32(header))
        self._disk.write_at(self._handle, len(MAGIC), header)
        self._directory_lsn = self.lsn

    # ------------------------------------------------------------------
    # open / recovery
    # ------------------------------------------------------------------

    def _wal_size(self) -> int:
        try:
            return os.path.getsize(self.wal_path)
        except OSError:
            return 0

    def _open_existing(self, page_bytes: int | None) -> None:
        """Take the base :func:`log_base` names and hold the tapes past it.

        The page images of every checkpoint record still in the log are
        decoded over the page file, newest wins, and count as dirty — also
        those the directory's LSN says were written back: page, directory
        and header writes share one sync, so a power loss can keep the
        directory and lose a page.  Opening writes nothing but the cut of
        a torn tail, so a follower's log stays a byte-for-byte mirror and
        the next checkpoint does the write-back.
        """
        directory = read_directory(self.path)
        flushed_lsn = directory["lsn"] if directory is not None else -1
        scan = scan_wal(self.wal_path)
        state, source, self.tapes = log_base(directory, scan.transactions, self.path)
        self.lsn, self.page_bytes = state["lsn"], state["page_bytes"]
        self._next_id = self._journaled_next_id = state["next_id"]
        self._free_ids, self._on_disk = state["free_ids"], state["on_disk"]
        self.owner = state["owner"]
        self._directory_lsn = max(flushed_lsn, 0)
        images: dict[int, bytes] = {}
        for txn in scan.transactions:
            images.update(txn.puts)
        for block_id, image in images.items():
            if block_id in self._on_disk:
                self._objects[block_id] = decode_block_payload(image)
                self._dirty.add(block_id)
        if scan.torn_tail:
            self._wal.trim(scan.committed_bytes)
        if page_bytes is not None and page_bytes != self.page_bytes:
            raise StorageError(
                f"{self.path} has {self.page_bytes}-byte pages, not {page_bytes}"
            )
        self.recovery_report = {
            "checkpoint_lsn": flushed_lsn if directory is not None else None,
            "lsn": self.lsn + len(self.tapes),
            "base": source,
            "replayed_transactions": len(self.tapes),
            "discarded_tail_bytes": scan.tail_bytes if scan.torn_tail else 0,
            "discarded_tail_reason": scan.tail_reason,
        }
        registry = get_registry()
        registry.counter(
            "repro_recovery_opens_total", help="page files opened with recovery"
        ).inc()
        if self.tapes:
            registry.counter(
                "repro_recovery_replayed_txns_total",
                help="committed WAL transactions replayed at open",
            ).inc(len(self.tapes))

    # ------------------------------------------------------------------
    # pages
    # ------------------------------------------------------------------

    def _page_offset(self, block_id: int) -> int:
        return len(MAGIC) + HEADER_BYTES + (block_id - 1) * self.page_bytes

    def _write_page_image(self, block_id: int, image: bytes) -> None:
        framed = _PAGE_HEADER.pack(len(image)) + image
        self._disk.hit("backend.page_write", len(framed))
        self._disk.write_at(self._handle, self._page_offset(block_id), framed)
        self.page_writes += 1

    def _read_page(self, block_id: int) -> Any:
        # A block dirtied since the last checkpoint is pinned in the
        # object table, so a cold read always finds its newest image in
        # the file.  The read is positioned on the descriptor: readers
        # under the shared latch cold-read concurrently, and seek + read on
        # the one shared handle would let two of them swap pages.
        framed = os.pread(
            self._handle.fileno(), self.page_bytes, self._page_offset(block_id)
        )
        (length,) = _PAGE_HEADER.unpack_from(framed)
        self.page_reads += 1
        return decode_block_payload(framed[_PAGE_HEADER.size : _PAGE_HEADER.size + length])

    def _image(self, block_id: int) -> bytes:
        """The block's page image; a :class:`~repro.errors.StorageError`
        when it outgrows the slot."""
        image = encode_block_payload(self._objects[block_id])
        if _PAGE_HEADER.size + len(image) > self.page_bytes:
            raise StorageError(
                f"block {block_id} needs {_PAGE_HEADER.size + len(image)} "
                f"bytes but pages hold {self.page_bytes}; raise page_bytes"
            )
        return image

    # ------------------------------------------------------------------
    # StorageBackend interface
    # ------------------------------------------------------------------

    def allocate(self, payload: Any = None) -> int:
        if self._free_ids:
            # A recycled id: cancel this delta's own push, or journal a pop.
            if self._pushed:
                self._pushed.pop()
            else:
                self._pops += 1
        return super().allocate(payload)

    def free(self, block_id: int) -> None:
        super().free(block_id)
        self._pushed.append(block_id)

    def read(self, block_id: int) -> Any:
        # One dict probe: concurrent cold readers install into the table,
        # so a get-then-contains pair could see "absent" then "present".
        payload = self._objects.get(block_id, _ABSENT)
        if payload is not _ABSENT:
            return payload  # may be a stored literal None
        if block_id not in self._on_disk:
            raise KeyError(block_id)
        payload = self._read_page(block_id)
        self._objects[block_id] = payload
        return payload

    def write(self, block_id: int, payload: Any) -> None:
        if not self.exists(block_id):
            raise KeyError(block_id)
        self._objects[block_id] = payload

    def exists(self, block_id: int) -> bool:
        return block_id in self._objects or block_id in self._on_disk

    def block_ids(self) -> Iterator[int]:
        return iter(sorted(self._on_disk.union(self._objects)))

    def __len__(self) -> int:
        return len(self._on_disk.union(self._objects))

    def _install(self, block_id: int, payload: Any) -> None:
        self._objects[block_id] = payload

    def _discard(self, block_id: int) -> None:
        if not self.exists(block_id):
            raise KeyError(block_id)
        self._objects.pop(block_id, None)
        self._dirty.discard(block_id)
        if block_id in self._on_disk:
            self._on_disk.discard(block_id)
            self._dropped.append(block_id)

    # ------------------------------------------------------------------
    # durability
    # ------------------------------------------------------------------

    def commit(self, dirty_ids: Iterable[int], tape: Tape = None) -> None:
        """Make the listed blocks + what changed in the directory durable:
        with their ``tape`` (its rows encoded here), one log transaction
        ``[OPS, DELTA, COMMIT]`` and one sync (see :mod:`repro.storage.wal`);
        without one — or with an op the op row cannot carry — a checkpoint.

        The blocks join the next checkpoint's write-back first, so one
        restates them also when this commit fails.  Once the tape is
        logged the commit stands: the automatic checkpoint it takes every
        :data:`CHECKPOINT_TAPE_BYTES` of tape is retried by the next
        commit when it fails transiently.
        """
        dirty = [block_id for block_id in dirty_ids if block_id in self._objects]
        if not dirty and not self._delta()[1]:
            return  # a failed batch that changed nothing durable
        self._disk.hit("backend.commit")
        with trace.span("backend.commit") as span:
            bytes_before = self.bytes_written
            try:
                ops = None if tape is None else b"".join(row(ended) for row, ended in tape)
            except ProtocolError:
                ops = None
            widest = self.owner.widest_page
            if ops is not None and self._replay is None and (
                widest is None or widest > self.page_bytes
            ):
                for block_id in dirty:  # refused before the ack, not at a checkpoint
                    self._image(block_id)
            self._dirty.update(dirty)
            if ops is None or self._unlogged:
                self._unlogged = True
                self.checkpoint()
            else:
                self._journal(ops)
                self._tape_bytes += len(ops)
                if self._tape_bytes > CHECKPOINT_TAPE_BYTES and self._replay is None:
                    try:
                        self.checkpoint()
                    except TransientIOError:
                        pass
            self.commits += 1
            if span.recording:
                span.add("backend.pages", 0 if ops is not None else len(dirty))
                span.add("backend.bytes", self.bytes_written - bytes_before)
        get_registry().counter(
            "repro_backend_commits_total",
            help="WAL-guarded page-file commits",
        ).inc()

    def _delta(self) -> tuple[list[int], bool]:
        """The pending DELTA row — the allocation changes, then the
        owner's part — and whether it changes anything."""
        owner_row, owner_changed = self.owner.delta()
        row = [self._next_id - self._journaled_next_id, self._pops]
        row.append(len(self._pushed))
        row += self._pushed
        row.append(len(self._dropped))
        row += self._dropped
        changed = owner_changed or any(row)
        return row + owner_row, changed

    def _consumed(self) -> None:
        """The pending DELTA is durable (or restated): start the next."""
        self.lsn += 1
        self.owner.consumed()
        self._journaled_next_id = self._next_id
        self._pops = 0
        self._pushed.clear()
        self._dropped.clear()

    def _journal(self, ops: bytes) -> None:
        """Append ``[OPS, DELTA, COMMIT]`` and sync the log — or, under
        :meth:`replaying`, check the DELTA and tape against the logged
        transaction instead of appending.

        The pending delta and its LSN are consumed only once the sync has
        succeeded, and a :class:`~repro.errors.TransientIOError` up to and
        including the sync rolls the log back: a retried commit journals
        the same delta under the same LSN, an abandoned one leaves no
        transaction behind for a later, larger delta to duplicate.
        """
        self._refuse_unreplayed()
        row, _changed = self._delta()
        body = bytearray()
        append_uvarints(body, [self.lsn + 1, len(row)] + row)
        logged = self._replay
        if logged is None:
            self._wal.append_transaction({}, bytes(body), ops=ops)
        elif (logged.body, logged.ops) != (body, ops):  # the body leads with the LSN
            record = "DELTA" if logged.ops == ops else "tape (a batch's ops or how it ended)"
            raise RecoveryError(
                f"{self.path}: re-running log transaction {logged.lsn} "
                f"gave a different {record} than the one logged"
            )
        self._consumed()

    def _refuse_unreplayed(self) -> None:
        if self.tapes:
            raise RecoveryError(
                f"{self.path}: the log holds {len(self.tapes)} tape(s) past "
                f"LSN {self.lsn} that no replay has re-run; open the file "
                "through repro.persist.open_file_scheme"
            )

    @contextmanager
    def replaying(self, txn: WALTransaction) -> Iterator[None]:
        """Scope the re-run of logged transaction ``txn``: the commit inside
        logs nothing, and raises a :class:`~repro.errors.RecoveryError`
        naming the LSN unless its DELTA and tape are the logged ones byte
        for byte — the owner journals the logged stamp, which re-running
        cannot derive.  So does leaving the scope without that commit."""
        owner = self.owner
        stamp = owner.stamp
        logged = owner.logged_stamp(_owner_row(txn.body))
        owner.stamp = lambda: logged
        self._replay = txn
        try:
            yield
        finally:
            self._replay = None
            owner.stamp = stamp
        if self.lsn != txn.lsn:
            raise RecoveryError(
                f"{self.path}: re-running log transaction {txn.lsn} committed nothing"
            )

    def checkpoint(self) -> int:
        """Fold the log into the page file (the *force* protocol) and seal
        it; returns the sealed segment's id.

        Encodes every page dirtied since the last checkpoint once and logs
        the images with an ABSOLUTE record — the complete directory, at a
        new LSN when something is still pending or no record carries it
        (a commit's blocks without a tape: a follower, which cannot
        restate those, stops rather than diverge) — as ``[PUT…, ABSOLUTE,
        COMMIT]``, sync; writes the same images and the directory into
        the page file, sync; seals the log into the next segment and
        applies retention (:meth:`_seal`).  A transient error logging the
        record leaves its LSN to the retry.
        """
        self._refuse_unreplayed()
        if self._replay is not None:  # a re-run re-creates its tape, or nothing
            raise RecoveryError(
                f"{self.path}: re-running log transaction {self._replay.lsn} "
                "ended without its tape"
            )
        puts = {block_id: self._image(block_id) for block_id in sorted(self._dirty)}
        _row, changed = self._delta()
        bump = changed or self._unlogged
        if bump:
            self._consumed()  # the record restates the whole directory
        self._on_disk.update(puts)
        blob = encode_directory(self._directory())
        try:
            self._wal.append_transaction(puts, blob, absolute=True)
        except TransientIOError:
            if bump:
                self.lsn -= 1
                self._unlogged = True
            raise
        self._unlogged = False
        self.pages_journaled += len(puts)
        self.write_back(puts, blob)
        return self._seal()

    def write_back(self, puts: dict[int, bytes], blob: bytes) -> None:
        """Write the page images ``puts`` and the directory image ``blob``
        to the page file and sync it; nothing is dirty after.  Both must
        already be durable in the log as a checkpoint record (this
        checkpoint's own, or on a follower the one its primary shipped): a
        crash in here tears pages and directory, and only the log can
        repair both."""
        for block_id, image in puts.items():
            self._write_page_image(block_id, image)
        self._write_directory(blob)
        # The barrier: the page file must be durable before the log stops
        # being the source of truth (is sealed away).
        self._disk.sync(self._handle)
        self._dirty.clear()
        self._tape_bytes = 0

    def restate(self, txn: WALTransaction) -> None:
        """Follower side: the primary checkpointed at ``txn`` (an ABSOLUTE
        record and its page images), which the replica's replayed state
        must already be — same LSN, every block dirtied since the last
        checkpoint among the images — or a
        :class:`~repro.errors.RecoveryError`; then write them back."""
        if txn.lsn != self.lsn or not self._dirty.issubset(txn.puts):
            raise RecoveryError(
                f"{self.path}: checkpoint record {txn.lsn} does not restate "
                f"the replayed state at LSN {self.lsn}"
            )
        self._on_disk.update(txn.puts)
        self.write_back(txn.puts, txn.body)

    # ------------------------------------------------------------------
    # WAL segments and retention (see repro.storage.walseg)
    # ------------------------------------------------------------------

    def _seal(self) -> int:
        """Rename the live log to the next numbered segment, then apply
        retention; returns the segment's id."""
        manifest = self.wal_manifest
        seg_id = manifest["next_segment"]
        self._wal.seal_to(segment_path(self.path, seg_id))
        manifest["segments"].append(seg_id)
        manifest["next_segment"] = seg_id + 1
        apply_retention(self.path, manifest, fsync=self._disk.fsync)
        get_registry().counter(
            "repro_wal_segments_sealed_total",
            help="live WAL rotations into sealed segment files",
        ).inc()
        return seg_id

    def seal_wal_segment(self) -> int | None:
        """Seal the live log into a numbered segment — a replication
        follower's step, once it has mirrored the segment its primary
        sealed.

        Returns the new segment's id, or ``None`` when the live log holds
        no transactions (sealing would produce an empty segment).  A log
        the page file does not fully include yet — a newer LSN, or pages
        dirtied since the last write-back — is checkpointed instead, whose
        seal is the seal: once sealed, a log can no longer repair a torn
        write-back.  The caller must hold
        whatever latch guards commits — rotation must not interleave with
        a transaction being appended.
        """
        if self._wal_size() <= len(WAL_MAGIC):
            return None
        if self._directory_lsn != self.lsn or self._dirty:
            return self.checkpoint()
        return self._seal()

    def record_checkpoint_image(self, extra: dict[str, Any] | None = None) -> dict[str, Any]:
        """Copy the page file as the checkpoint image for the *next*
        segment, record it in the manifest and apply retention.

        Call right after :meth:`checkpoint`: the image then reflects every
        sealed segment, so restoring it and replaying segments
        ``>= record["segment"]`` reproduces any later state.  ``extra``
        (e.g. the service epoch at checkpoint time) is stored verbatim in
        the record for lag accounting.
        """
        manifest = self.wal_manifest
        seg = manifest["next_segment"]
        image = checkpoint_image_path(self.path, seg)
        self._handle.flush()
        size = self._disk.copy(self.path, image)
        record: dict[str, Any] = {
            "segment": seg,
            "image": os.path.basename(image),
            "bytes": size,
        }
        if extra:
            record.update(extra)
        manifest["checkpoints"].append(record)
        apply_retention(self.path, manifest, fsync=self._disk.fsync)
        get_registry().counter(
            "repro_wal_checkpoint_images_total",
            help="checkpoint images recorded in the WAL manifest",
        ).inc()
        return record

    def drop_clean_objects(self) -> None:
        """Evict the object table (blocks written back only).

        Diagnostics/tests: forces subsequent reads down the decode path
        (the page file), proving the durable images are the real
        structure.  Blocks dirtied since the last checkpoint stay resident
        — the page file does not hold them yet.
        """
        for block_id in list(self._objects):
            if block_id in self._on_disk and block_id not in self._dirty:
                del self._objects[block_id]

    def close(self) -> None:
        self._wal.close()
        if not self._handle.closed:
            self._handle.close()
