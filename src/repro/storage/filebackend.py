"""File-backed block storage: page images in shadow extents + WAL + recovery.

The :class:`FileBackend` keeps every block's encoded payload
(:mod:`repro.storage.codec`) as one *extent* of a single page file: a
byte range exactly as long as the image, found through the page table.
Layout::

    ┌──────────┬────────┬────────┬───────────────────────────────────────┐
    │ magic 8B │ slot 0 │ slot 1 │ extents: page images, the directory, │
    │          │ @8     │ @512   │ gaps — from byte 1024 on              │
    └──────────┴────────┴────────┴───────────────────────────────────────┘

* The **directory** is the structure's complete description minus block
  payloads: the LSN it includes, the allocation state (next id, free
  list in recycling order), the **page table** (block id → offset and
  length of its image: a row of lengths by block id, then each image's
  offset as a zigzag delta from the end of the one before), then the
  section of the backend's one ``owner`` (:mod:`repro.storage.owner` —
  what makes reopening yield a working scheme, not just bytes).  It is
  one more extent, written only by a checkpoint.
* A **header slot** holds a checkpoint sequence number, the LSN, the
  directory's offset, length and CRC-32, under a CRC of its own.  The
  valid slot with the higher sequence number is the file's state; the
  other is the previous checkpoint's.
* A **checkpoint** writes each page dirtied since the last one once, into
  a free extent — first fit over the gaps between the extents the
  durable directory references, low offsets first, the file growing only
  when no gap fits — then the directory the same way, syncs, writes the
  *older* header slot and syncs again: that write is the commit point.
  The extents the new state no longer references become gaps only then,
  so no write of a checkpoint ever lands on bytes the durable header
  reaches.  A cold read is one positioned read of exactly the image.

Durability between checkpoints runs through the write-ahead log
(:mod:`repro.storage.wal`): a commit appends the tape of the batches that
dirtied its blocks (OPS) and a DELTA record — what the commit changed in
the allocation state, the owner's part last — and syncs the log; nothing
else, and no page is encoded.  A commit without a tape (blocks dirtied
outside a batch, or a batch ended by an error a re-run cannot reproduce)
is a checkpoint.  A checkpoint is taken explicitly, or by
:meth:`FileBackend.commit` itself once :data:`CHECKPOINT_TAPE_BYTES` of
tape have been logged since the last one; it ends by sealing the log into
a numbered segment, which one retention rule keeps or deletes
(:mod:`repro.storage.walseg`).  Opening a file starts from its header's
directory and holds the logged tapes past its LSN until
:func:`repro.persist.replay_transaction` — the one replay recovery,
point-in-time restore and replication followers share — re-runs them
under :meth:`FileBackend.replaying`.

**Consistency model.**  Decoded payloads live in an object table and are
mutated in place by the tree code, exactly like the memory backend — the
object table is the "buffer pool" and keeps object identity stable within
a process.  Serialization happens at checkpoint (encode) and on a cold
read (decode); a page dirtied since the last checkpoint lives only in the
table (and in the tapes that re-create it) until the next one writes it.
Only *committed* state survives a crash: an operation's mutations become
durable when the operation scope closes and :meth:`commit` runs.

**Fault injection.**  Install a :class:`~repro.faults.FaultInjector`
(``backend.fault_injector = injector`` or
:meth:`FileBackend.install_faults`) and the backend's
:class:`~repro.storage.disk.Disk` hits it at the named hook points:
``backend.raw_write`` on every physical write (WAL records, pages, the
directory, the header — one funnel), ``backend.page_write`` just before a
page image and ``backend.superblock`` just before the header slot goes
out (inside checkpoints only), ``backend.fsync`` before each hooked
``os.fsync``, ``backend.commit`` on commit entry.  Every crash-type
fault at any of its hooks (the WAL's included) leaves the backend
refusing all further writes until reopened (:meth:`Disk.hit`).
"""

from __future__ import annotations

import os
import struct
import zlib
from array import array
from bisect import bisect
from contextlib import contextmanager
from itertools import compress
from typing import Any, Iterable, Iterator

from ..errors import PersistError, ProtocolError, RecoveryError, TransientIOError
from ..obs import trace
from ..obs.metrics import get_registry
from .backend import StorageBackend, Tape
from .codec import (
    append_uvarints,
    decode_block_payload,
    encode_block_payload,
    scan_uvarint,
    scan_uvarints,
)
from .disk import Disk
from .owner import FoldedOwner
from .wal import REC_DELTA, REC_OPS, WALTransaction, WALWriter, scan_wal
from .walseg import (
    apply_retention,
    checkpoint_image_path,
    read_wal_manifest,
    segment_path,
)

#: Format version 4: page images in extents sized to them, found through
#: the directory's page table, and two header slots a checkpoint flips
#: between.  Version 3 kept each image in a fixed-size slot by block id
#: and one header; version 2 coded rows as plain varints; version 1 kept
#: a JSON superblock and rewrote it with every commit.
MAGIC = b"BOXPAGE4"

#: Where the two header slots start, and where extents start.
SLOTS = (len(MAGIC), 512)
DATA_START = 1024

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
#: several times longer per byte.  A larger bound alone writes no fewer
#: bytes per submit: on the e2e ``write_small`` workload (seeds 1 and 2)
#: 16 KiB wrote 383.6 / 378.6 B a submit against 352.1 / 354.3 B at
#: 8 KiB, and 32 KiB wrote 340.3 / 334.1 B but grew the page file from
#: 3.21–3.23 to 3.98–4.03 B a label — checkpoints land in whole latency
#: slices, and a larger dirty set needs more shadow-extent room.
CHECKPOINT_TAPE_BYTES = 8192

#: Object-table miss marker (``None`` is a legal payload).
_ABSENT = object()
#: A header slot: checkpoint sequence number, LSN, directory offset,
#: length and CRC-32; then the CRC-32 of those.
_SLOT = struct.Struct(">QQQII")
_CRC = struct.Struct(">I")


class PageTable:
    """Block id → the extent of its durable image, as two arrays indexed
    by id (length 0: no image), so a block costs 12 bytes, not a tuple."""

    def __init__(self, offsets: Iterable[int] = (0,), lengths: Iterable[int] = (0,)) -> None:
        self.offsets = array("Q", offsets)
        self.lengths = array("L", lengths)

    def copy(self) -> "PageTable":
        return PageTable(self.offsets, self.lengths)

    def length(self, block_id: int) -> int:
        return self.lengths[block_id] if block_id < len(self.lengths) else 0

    def extent(self, block_id: int) -> tuple[int, int]:
        return self.offsets[block_id], self.lengths[block_id]

    def place(self, block_id: int, offset: int, length: int) -> None:
        grow = block_id + 1 - len(self.lengths)
        if grow > 0:
            self.offsets.extend([0] * grow)
            self.lengths.extend([0] * grow)
        self.offsets[block_id] = offset
        self.lengths[block_id] = length

    def drop(self, block_id: int) -> None:
        self.lengths[block_id] = 0

    def ids(self) -> list[int]:
        return list(compress(range(len(self.lengths)), self.lengths))

    def extents(self) -> list[tuple[int, int]]:
        return [self.extent(block_id) for block_id in self.ids()]

    def row(self) -> list[int]:
        """The directory's rows: the length of every id's image up to the
        last that has one, then each image's offset as the zigzag delta
        from where the image before it (by id) ends."""
        rows = len(self.lengths)
        while rows > 1 and not self.lengths[rows - 1]:
            rows -= 1
        flat = [rows - 1, *self.lengths[1:rows]]
        end = DATA_START
        for block_id in compress(range(1, rows), self.lengths[1:rows]):
            offset = self.offsets[block_id]
            delta = offset - end
            flat.append(delta << 1 if delta >= 0 else (-delta << 1) - 1)
            end = offset + self.lengths[block_id]
        return flat

    @classmethod
    def scan(cls, data: bytes, pos: int) -> tuple["PageTable", int]:
        """Inverse of :meth:`row`."""
        rows, pos = scan_uvarint(data, pos)
        lengths, pos = scan_uvarints(data, pos, rows)
        deltas, pos = scan_uvarints(data, pos, sum(map(bool, lengths)))
        offsets = [0] * (rows + 1)
        end = DATA_START
        placed = iter(deltas)
        for block_id, length in enumerate(lengths, 1):
            if length:
                raw = next(placed)
                offsets[block_id] = end + ((raw >> 1) ^ -(raw & 1))
                end = offsets[block_id] + length
        return cls(offsets, [0, *lengths]), pos


class Gaps:
    """The free byte ranges past :data:`DATA_START` between the extents
    in use: sorted, coalesced, taken first fit; everything from ``end``
    on is free too.

    First fit descends a max-tree over the gap sizes, built on the first
    :meth:`take` after a :meth:`give` — a checkpoint takes all its
    extents, then gives back in one batch — so a take costs a root-to-leaf
    walk, not a scan of every small gap ahead of the one that fits.  A
    taken-up gap stays as a zero-sized one until the next give."""

    def __init__(self, extents: Iterable[tuple[int, int]]) -> None:
        self.starts: list[int] = []
        self.sizes: list[int] = []
        self._tree: list[int] | None = None
        end = DATA_START
        for offset, length in sorted(extents):
            if offset > end:
                self.starts.append(end)
                self.sizes.append(offset - end)
            end = max(end, offset + length)
        self.end = end

    def take(self, size: int) -> int:
        """The lowest offset with ``size`` free bytes, now in use."""
        tree = self._tree
        if tree is None:
            leaves = 1 << max(0, len(self.sizes) - 1).bit_length()
            tree = self._tree = [0] * leaves + self.sizes + [0] * (leaves - len(self.sizes))
            for node in range(leaves - 1, 0, -1):
                tree[node] = max(tree[2 * node], tree[2 * node + 1])
        leaves = len(tree) // 2
        if tree[1] < size:
            offset = self.end
            self.end += size
            return offset
        node = 1
        while node < leaves:
            node = 2 * node if tree[2 * node] >= size else 2 * node + 1
        index = node - leaves
        offset = self.starts[index]
        self.starts[index] += size
        self.sizes[index] -= size
        tree[node] = self.sizes[index]
        while node > 1:
            node //= 2
            tree[node] = max(tree[2 * node], tree[2 * node + 1])
        return offset

    def give(self, offset: int, size: int) -> None:
        """Return an extent :meth:`take` handed out (or one in use at
        construction)."""
        if self._tree is not None:
            self._tree = None
            kept = [index for index, free in enumerate(self.sizes) if free]
            self.starts = [self.starts[index] for index in kept]
            self.sizes = [self.sizes[index] for index in kept]
        index = bisect(self.starts, offset)
        if index and self.starts[index - 1] + self.sizes[index - 1] == offset:
            index -= 1
            self.sizes[index] += size
        else:
            self.starts.insert(index, offset)
            self.sizes.insert(index, size)
        stop = self.starts[index] + self.sizes[index]
        if index + 1 < len(self.starts) and self.starts[index + 1] == stop:
            self.sizes[index] += self.sizes.pop(index + 1)
            del self.starts[index + 1]
        if self.starts[index] + self.sizes[index] == self.end:
            self.end = self.starts.pop(index)
            del self.sizes[index]


def encode_directory(state: dict[str, Any]) -> bytes:
    """A directory dict as the bytes of its extent: counted varint rows
    (LSN, next id, free list, :meth:`PageTable.row`), then the owner's
    section, ``state["owner"].image()``, as the owner wrote it."""
    flat = [state["lsn"], state["next_id"], len(state["free_ids"]), *state["free_ids"]]
    flat += state["table"].row()
    out = bytearray()
    append_uvarints(out, flat)
    return bytes(out) + state["owner"].image()


def decode_directory(data: bytes) -> dict[str, Any]:
    """Inverse of :func:`encode_directory`, the image's tail handed to a
    :class:`~repro.storage.owner.FoldedOwner`; raises
    :class:`~repro.errors.PersistError` on a malformed image."""
    (lsn, next_id, count), pos = scan_uvarints(data, 0, 3)
    free_ids, pos = scan_uvarints(data, pos, count)
    table, pos = PageTable.scan(data, pos)
    return {
        "lsn": lsn,
        "next_id": next_id,
        "free_ids": free_ids,
        "table": table,
        "owner": FoldedOwner(data[pos:]),
    }


def logged_tapes(lsn: int, transactions: list[WALTransaction], path: str) -> list[WALTransaction]:
    """The logged tapes past a directory at ``lsn``, in order, for
    :func:`repro.persist.replay_transaction` to re-run.  The ones at or
    below ``lsn`` — a log that outlived its checkpoint — are skipped; a
    gap, or a transaction without its DELTA or tape, is a
    :class:`~repro.errors.RecoveryError`."""
    for txn in transactions:
        if txn.lsn is None:
            raise RecoveryError(f"{path}: a committed transaction carries no DELTA record")
    tapes = [txn for txn in transactions if txn.lsn > lsn]
    for expected, txn in enumerate(tapes, lsn + 1):
        if txn.lsn != expected:
            raise RecoveryError(
                f"{path}: log transaction {txn.lsn} cannot follow state {expected - 1}"
            )
        if txn.ops is None:
            raise RecoveryError(f"{path}: log transaction {expected} carries no tape")
    return tapes


def read_directory(path: str) -> dict[str, Any]:
    """Read a page file's durable directory without opening a backend.

    Read-only and recovery-free: diagnostics (``repro info``) must not
    mutate the file they describe.  The directory the valid header slot
    with the higher sequence number names; its dict also carries
    ``slot``, ``generation`` and ``extent`` (the directory's own offset
    and length).  Raises :class:`~repro.errors.PersistError` on bad magic
    and :class:`~repro.errors.RecoveryError` when neither slot is valid
    or the directory it names fails its CRC — never falling back to the
    older slot, whose extents the newer checkpoint may have reused.
    """
    with open(path, "rb") as handle:
        magic = handle.read(len(MAGIC))
        if magic in (b"BOXPAGE1", b"BOXPAGE2", b"BOXPAGE3"):
            raise PersistError(
                f"{path} is a format-version-{magic[-1] - 48} page file; "
                "this build reads version 4"
            )
        if magic != MAGIC:
            raise PersistError(f"{path} is not a page file (bad magic)")
        slots = []
        for slot, offset in enumerate(SLOTS):
            handle.seek(offset)
            image = handle.read(_SLOT.size + _CRC.size)
            if len(image) == _SLOT.size + _CRC.size and _CRC.unpack_from(
                image, _SLOT.size
            ) == (zlib.crc32(image[: _SLOT.size]),):
                slots.append((_SLOT.unpack_from(image), slot))
        if not slots:
            raise RecoveryError(f"{path}: neither header slot is valid")
        (generation, lsn, offset, length, crc), slot = max(slots)
        handle.seek(offset)
        blob = handle.read(length)
    if len(blob) != length or zlib.crc32(blob) != crc:
        raise RecoveryError(
            f"{path}: the directory header slot {slot} names (LSN {lsn}) fails its CRC"
        )
    try:
        state = decode_directory(blob)
    except PersistError as error:
        raise RecoveryError(f"{path}: directory unreadable: {error}") from None
    if state["lsn"] != lsn:
        raise RecoveryError(f"{path}: header slot {slot} and its directory disagree on the LSN")
    state.update(slot=slot, generation=generation, extent=(offset, length))
    return state


class FileBackend(StorageBackend):
    """Block residency in a page file of shadow extents with WAL
    durability.

    Parameters
    ----------
    path:
        The page file.  Created if missing; otherwise opened on its
        durable directory, with the write-ahead log (``path + ".wal"``)
        holding the tapes past it.
    fsync:
        Issue ``os.fsync`` at the durability points: once per commit (the
        log), and at a checkpoint's two barriers.  Off by default:
        simulated crashes (the only kind tests can make) do not lose
        OS-buffered writes, and benchmarks should measure the protocol,
        not the host's disk.
    """

    def __init__(self, path: str, fsync: bool = False) -> None:
        #: Fsync policy, fault injector, crash state, bytes written.
        self._disk = Disk(fsync)
        super().__init__()
        self.path = path
        self.wal_path = path + ".wal"
        #: Segment bookkeeping (see :mod:`repro.storage.walseg`).
        self.wal_manifest: dict[str, Any] = read_wal_manifest(path)
        #: Decoded live payloads (the buffer pool); identity-stable.
        self._objects: dict[int, Any] = {}
        #: The extent of every live block's durable image.
        self._table = PageTable()
        #: Extents the durable directory references and the live table no
        #: longer does (freed blocks): gaps once the next checkpoint commits.
        self._retired: list[tuple[int, int]] = []
        #: Extents of a checkpoint whose header slot went out but whose
        #: sync failed: the slot may be durable, so they stay in use until
        #: a later checkpoint overwrites that slot.
        self._in_doubt: list[tuple[int, int]] = []
        #: The durable directory's own extent, header sequence number and
        #: the slot the next checkpoint writes (the older one).
        self._dir_extent = (DATA_START, 0)
        self._generation = 0
        self._next_slot = 0
        #: Blocks dirtied since the last checkpoint: pinned in the object
        #: table, the next checkpoint encodes and writes them.
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
        #: next commit must then be a checkpoint, at a new LSN.
        self._unlogged = False
        #: LSN of the last transaction made durable, and of the durable
        #: directory.
        self.lsn = 0
        self._directory_lsn = 0
        # The allocation delta since the last journaled transaction,
        # recorded by allocate/free as they happen: free-list pops
        # reaching below this delta's own pushes, and the pushes still
        # standing.
        self._journaled_next_id = 1
        self._pops = 0
        self._pushed: list[int] = []
        #: The owner of every directory image's and DELTA's tail
        #: (:mod:`repro.storage.owner`): what the base held, until
        #: :func:`repro.persist.checkpoint_scheme` installs a journal.
        self.owner: Any = FoldedOwner()
        # Physical-I/O counters (the honest cost the logical IOStats models).
        self.page_writes = 0
        self.page_reads = 0
        self.commits = 0
        #: Filled when opening an existing file: what recovery found/did.
        self.recovery_report: dict[str, Any] = {}

        self._wal = WALWriter(self.wal_path, self._disk)
        existing = os.path.exists(self.path) and os.path.getsize(self.path) > 0
        if existing:
            self._handle = self._disk.open(self.path, "r+b")
            self._open_existing()
        else:
            self._handle = self._disk.open(self.path, "w+b")
            self._gaps = Gaps(())
            self._disk.write_at(self._handle, 0, MAGIC)
            self._write_checkpoint({})

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
    # open / recovery
    # ------------------------------------------------------------------

    def _open_existing(self) -> None:
        """Take the durable directory and hold the logged tapes past it.

        The free gaps are rebuilt from its page table.  Opening writes
        nothing but the cut of a torn tail, so a follower's log stays a
        byte-for-byte mirror.
        """
        state = read_directory(self.path)
        scan = scan_wal(self.wal_path)
        self.tapes = logged_tapes(state["lsn"], scan.transactions, self.path)
        self.lsn = self._directory_lsn = state["lsn"]
        self._next_id = self._journaled_next_id = state["next_id"]
        self._free_ids, self._table = state["free_ids"], state["table"]
        self.owner = state["owner"]
        self._dir_extent = state["extent"]
        self._generation, self._next_slot = state["generation"], 1 - state["slot"]
        self._gaps = Gaps([*self._table.extents(), self._dir_extent])
        if scan.torn_tail:
            self._wal.trim(scan.committed_bytes)
        self.recovery_report = {
            "checkpoint_lsn": state["lsn"],
            "lsn": self.lsn + len(self.tapes),
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

    def _read_page(self, block_id: int) -> Any:
        # A block dirtied since the last checkpoint is pinned in the
        # object table, so a cold read always finds its newest image in
        # the file, in an extent no checkpoint writes over while the table
        # names it.  The read is positioned on the descriptor: readers
        # under the shared latch cold-read concurrently, and seek + read on
        # the one shared handle would let two of them swap pages.
        offset, length = self._table.extent(block_id)
        image = os.pread(self._handle.fileno(), length, offset)
        self.page_reads += 1
        return decode_block_payload(image)

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
        if not self._table.length(block_id):
            raise KeyError(block_id)
        payload = self._read_page(block_id)
        self._objects[block_id] = payload
        return payload

    def write(self, block_id: int, payload: Any) -> None:
        if not self.exists(block_id):
            raise KeyError(block_id)
        self._objects[block_id] = payload

    def exists(self, block_id: int) -> bool:
        return block_id in self._objects or self._table.length(block_id) > 0

    def block_ids(self) -> Iterator[int]:
        return iter(sorted(self._objects.keys() | self._table.ids()))

    def __len__(self) -> int:
        return len(self._objects.keys() | self._table.ids())

    def _install(self, block_id: int, payload: Any) -> None:
        self._objects[block_id] = payload

    def _discard(self, block_id: int) -> None:
        if not self.exists(block_id):
            raise KeyError(block_id)
        self._objects.pop(block_id, None)
        self._dirty.discard(block_id)
        if self._table.length(block_id):
            self._retired.append(self._table.extent(block_id))
            self._table.drop(block_id)

    # ------------------------------------------------------------------
    # durability
    # ------------------------------------------------------------------

    def commit(self, dirty_ids: Iterable[int], tape: Tape = None) -> None:
        """Make the listed blocks + what changed in the directory durable:
        with their ``tape`` (its rows encoded here), one log transaction
        ``[OPS, DELTA, COMMIT]`` and one sync (see :mod:`repro.storage.wal`);
        without one — or with an op the op row cannot carry — a checkpoint.

        The blocks join the next checkpoint first, so one writes them
        also when this commit fails.  Once the tape is logged the commit
        stands: the automatic checkpoint it takes every
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
        row = [self._next_id - self._journaled_next_id, self._pops, len(self._pushed)]
        row += self._pushed
        changed = owner_changed or any(row)
        return row + owner_row, changed

    def _consumed(self) -> None:
        """The pending DELTA is durable (or restated): start the next."""
        self.lsn += 1
        self.owner.consumed()
        self._journaled_next_id = self._next_id
        self._pops = 0
        self._pushed.clear()

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
            self._wal.append_transaction({REC_OPS: ops, REC_DELTA: bytes(body)})
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
        (_lsn, count), pos = scan_uvarints(txn.body, 0, 2)
        row = scan_uvarints(txn.body, pos, count)[0]
        logged = owner.logged_stamp(iter(row[3 + row[2]:]))
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
        """Write every page dirtied since the last checkpoint, once, into
        the page file and seal the log; returns the sealed segment's id.

        The directory goes out at a new LSN when something is still
        pending or no log record carries it (a commit's blocks without a
        tape: the log then skips that LSN, and a follower, which cannot
        re-create those blocks, stops rather than diverge).  A transient
        error before the header slot is durable leaves the durable state,
        the page table and the LSN to the retry (:meth:`_write_checkpoint`);
        then the log is sealed into the next segment and retention applied
        (:meth:`_seal`).
        """
        self._refuse_unreplayed()
        if self._replay is not None:  # a re-run re-creates its tape, or nothing
            raise RecoveryError(
                f"{self.path}: re-running log transaction {self._replay.lsn} "
                "ended without its tape"
            )
        images = {
            block_id: encode_block_payload(self._objects[block_id])
            for block_id in sorted(self._dirty)
        }
        _row, changed = self._delta()
        bump = changed or self._unlogged
        if bump:
            self._consumed()  # the directory restates the whole state
        try:
            self._write_checkpoint(images)
        except TransientIOError:
            if bump:
                self.lsn -= 1
                self._unlogged = True
            raise
        self._unlogged = False
        self._dirty.clear()
        self._tape_bytes = 0
        return self._seal()

    def _write_checkpoint(self, images: dict[int, bytes]) -> None:
        """Write ``images`` and the directory into free extents, sync,
        write the older header slot, sync; then adopt the new page table
        and hand the extents it no longer references to the gaps.

        A :class:`~repro.errors.TransientIOError` before the header slot
        goes out returns the extents this attempt took; one after keeps
        them in use (:attr:`_in_doubt`), as the slot may be durable."""
        table = self._table.copy()
        gaps, disk, handle = self._gaps, self._disk, self._handle
        taken: list[tuple[int, int]] = []
        header_out = False
        try:
            for block_id, image in images.items():
                offset = gaps.take(len(image))
                taken.append((offset, len(image)))
                disk.hit("backend.page_write", len(image))
                disk.write_at(handle, offset, image)
                self.page_writes += 1
                table.place(block_id, offset, len(image))
            blob = encode_directory(
                {
                    "lsn": self.lsn,
                    "next_id": self._next_id,
                    "free_ids": self._free_ids,
                    "table": table,
                    "owner": self.owner,
                }
            )
            directory = (gaps.take(len(blob)), len(blob))
            taken.append(directory)
            disk.write_at(handle, directory[0], blob)
            disk.sync(handle)  # the barrier: images before the header
            slot = _SLOT.pack(self._generation + 1, self.lsn, *directory, zlib.crc32(blob))
            slot += _CRC.pack(zlib.crc32(slot))
            disk.hit("backend.superblock", len(slot))
            header_out = True
            disk.write_at(handle, SLOTS[self._next_slot], slot)
            disk.sync(handle)  # the commit point
        except TransientIOError:
            if header_out:
                self._in_doubt += taken
            else:
                for extent in reversed(taken):
                    gaps.give(*extent)
            raise
        freed = [self._table.extent(b) for b in images if self._table.length(b)]
        freed += self._retired + self._in_doubt
        freed.append(self._dir_extent)
        for extent in freed:
            if extent[1]:
                gaps.give(*extent)
        self._retired, self._in_doubt = [], []
        self._table, self._dir_extent = table, directory
        self._generation += 1
        self._next_slot ^= 1
        self._directory_lsn = self.lsn

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

    def seal_wal_segment(self) -> int:
        """Seal the live log into a numbered segment — a replication
        follower's step, once it has mirrored the segment its primary
        sealed (an empty one too: a checkpoint with no commit since the
        last seals an empty log) — and return its id.

        A log the page file does not fully include yet — a newer LSN, or
        pages dirtied since the last checkpoint — is checkpointed instead,
        whose seal is the seal: a follower writes its pages on its own, at
        the points its primary did.  The caller must hold whatever latch
        guards commits — rotation must not interleave with a transaction
        being appended.
        """
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
        """Evict the object table (blocks the page file holds only).

        Diagnostics/tests: forces subsequent reads down the decode path
        (the page file), proving the durable images are the real
        structure.  Blocks dirtied since the last checkpoint stay resident
        — the page file does not hold them yet.
        """
        for block_id in list(self._objects):
            if self._table.length(block_id) and block_id not in self._dirty:
                del self._objects[block_id]

    def close(self) -> None:
        self._wal.close()
        if not self._handle.closed:
            self._handle.close()
