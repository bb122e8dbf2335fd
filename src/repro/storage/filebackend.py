"""File-backed block storage: real fixed-size pages + WAL + recovery.

The :class:`FileBackend` stores every block as one fixed-size page in a
single file, round-tripping payloads through the live-payload codec of
:mod:`repro.storage.codec`.  Layout::

    ┌──────────┬──────────────────────┬────────┬────────┬─────┐
    │ magic 8B │ superblock (fixed)   │ page 1 │ page 2 │ ... │
    └──────────┴──────────────────────┴────────┴────────┴─────┘

* The **superblock** is a CRC-guarded JSON blob: page geometry, the
  allocation state (next id + free list, in recycling order), and the
  owner's metadata (a labeling scheme checkpoints its LIDF directory and
  scheme parameters here on every commit, which is what makes crash
  recovery end-to-end: reopening yields a working scheme, not just bytes).
* A **page** is ``u32 payload length + encoded payload``, zero-padded to
  ``page_bytes``.  Page *i* lives at a fixed offset, so a block write is
  one positioned write.

Durability runs through the write-ahead log (:mod:`repro.storage.wal`):
pages are only written after their transaction's commit record is in the
log, so any crash leaves the file recoverable — see that module for the
protocol and :meth:`FileBackend._recover` for the read side.

**Consistency model.**  Decoded payloads live in an object table and are
mutated in place by the tree code, exactly like the memory backend — the
object table is the "buffer pool" and keeps object identity stable within
a process.  Serialization happens at commit (encode) and on a cold read
(decode).  Only *committed* state survives a crash: an operation's
mutations become durable when the operation scope closes and
:meth:`commit` runs.

**Fault injection.**  Install a :class:`~repro.faults.FaultInjector`
(``backend.fault_injector = injector`` or
:meth:`FileBackend.install_faults`) and the backend consults it at its
named hook points: ``backend.raw_write`` fires on every physical write
(WAL records, pages, the superblock — one funnel), ``backend.page_write``
and ``backend.superblock`` fire just before those specific images go out,
``backend.fsync`` fires before each real ``os.fsync``, and
``backend.commit`` fires on commit entry.  A torn/short write puts a
*prefix* of the data on disk — as real disks produce — raises
:class:`~repro.errors.CrashError`, and the backend refuses all further
writes until reopened.  Tests use this to prove recovery; see
:mod:`repro.faults` for the plan vocabulary.
"""

from __future__ import annotations

import json
import os
import shutil
import struct
import time as _time
import zlib
from typing import Any, Iterable, Iterator

from ..errors import (
    CrashError,
    FsyncFailedError,
    PersistError,
    RecoveryError,
    StorageError,
    TransientIOError,
)
from ..obs import trace
from ..obs.metrics import get_registry
from .backend import StorageBackend
from .codec import decode_block_payload, encode_block_payload
from .wal import MAGIC as WAL_MAGIC
from .wal import WALWriter, scan_wal
from .walseg import (
    checkpoint_image_path,
    read_wal_manifest,
    segment_path,
    write_wal_manifest,
)

MAGIC = b"BOXPAGE1"

#: Fixed byte length of the superblock region (magic excluded).
SUPERBLOCK_BYTES = 8192

#: Default page size when no block geometry is given.
DEFAULT_PAGE_BYTES = 4096

_PAGE_HEADER = struct.Struct(">I")  # payload length

#: Object-table miss marker (``None`` is a legal payload).
_ABSENT = object()
_SUPER_HEADER = struct.Struct(">II")  # JSON length, CRC-32


def decode_superblock_image(image: bytes) -> dict[str, Any] | None:
    """Decode a raw superblock region, or ``None`` if torn/corrupt."""
    if len(image) < _SUPER_HEADER.size:
        return None
    length, crc = _SUPER_HEADER.unpack_from(image)
    payload = image[_SUPER_HEADER.size : _SUPER_HEADER.size + length]
    if len(payload) != length or zlib.crc32(payload) != crc:
        return None
    try:
        return json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        return None


def resolve_superblock(handle: Any) -> dict[str, Any] | None:
    """Read the superblock through ``handle`` (positioned anywhere),
    following the overflow pointer when the state outgrew the fixed
    region.  Returns ``None`` if either image is torn/corrupt."""
    handle.seek(len(MAGIC))
    state = decode_superblock_image(handle.read(SUPERBLOCK_BYTES))
    if state is None or "overflow" not in state:
        return state
    pointer = state["overflow"]
    handle.seek(pointer["offset"])
    return decode_superblock_image(
        handle.read(_SUPER_HEADER.size + pointer["length"])
    )


def read_superblock(path: str) -> dict[str, Any] | None:
    """Read a page file's superblock without opening a backend.

    Read-only and recovery-free: diagnostics (``repro info``) must not
    mutate the file they describe.  Raises
    :class:`~repro.errors.PersistError` on bad magic; returns ``None``
    when the superblock itself is torn or corrupt.
    """
    with open(path, "rb") as handle:
        if handle.read(len(MAGIC)) != MAGIC:
            raise PersistError(f"{path} is not a page file (bad magic)")
        return resolve_superblock(handle)


def default_page_bytes(block_bytes: int) -> int:
    """Page size for a given logical block size.

    Varint page images of a maximally full node can exceed the bit-packed
    block size (a varint spends up to 5 bytes on a 32-bit field), so pages
    get 2x headroom, floored at 4 KB.
    """
    return max(DEFAULT_PAGE_BYTES, 2 * block_bytes)


class FileBackend(StorageBackend):
    """Block residency in a real page file with WAL durability.

    Parameters
    ----------
    path:
        The page file.  Created if missing; otherwise opened, running
        crash recovery first when the write-ahead log (``path + ".wal"``)
        is non-empty.
    page_bytes:
        Fixed page size.  Must match the file's on opening an existing
        file (omit to accept the stored geometry).
    fsync:
        Issue ``os.fsync`` at the durability points of each commit.
        Off by default: simulated crashes (the only kind tests can make)
        do not lose OS-buffered writes, and benchmarks should measure the
        protocol, not the host's disk.
    retain_wal:
        Keep committed transactions in the log instead of truncating it
        after each commit (segment-retaining mode, the substrate of
        replication and incremental checkpoints — see
        :mod:`repro.storage.walseg`).  The live log accumulates until
        :meth:`seal_wal_segment` rotates it into a numbered segment
        file; recovery on reopen replays the committed tail (page writes
        are idempotent) and trims only a torn suffix.  Off by default:
        the classic truncate-per-commit protocol is byte-identical to
        before.
    """

    def __init__(
        self,
        path: str,
        page_bytes: int | None = None,
        fsync: bool = False,
        retain_wal: bool = False,
    ) -> None:
        super().__init__()
        self.path = path
        self.wal_path = path + ".wal"
        self.fsync = fsync
        self.retain_wal = retain_wal
        #: Segment bookkeeping (see :mod:`repro.storage.walseg`); loaded
        #: lazily so non-retaining backends never touch the manifest.
        self.wal_manifest: dict[str, Any] | None = (
            read_wal_manifest(path) if retain_wal else None
        )
        #: Decoded live payloads (the buffer pool); identity-stable.
        self._objects: dict[int, Any] = {}
        #: Ids with a page image on disk (committed at some point).
        self._on_disk: set[int] = set()
        #: Owner metadata journaled with every commit (see metadata_provider).
        self.metadata: dict[str, Any] = {}
        #: Optional zero-arg callable returning fresh owner metadata; when
        #: set, every commit journals its result (schemes use this to keep
        #: their LIDF directory recoverable).
        self.metadata_provider: Any = None
        #: Optional one-arg callable applied to the provider's result
        #: before journaling; survives re-attachment of the provider
        #: (replication stamps each commit's publish epoch through this).
        self.metadata_decorator: Any = None
        #: A write-kind fault armed by a page/superblock hook, consumed by
        #: the next physical write (so "tear the superblock" tears the
        #: actual image bytes, wherever they land).
        self._pending_write_fault: Any = None
        self._crashed = False
        # Physical-I/O counters (the honest cost the logical IOStats models).
        self.page_writes = 0
        self.page_reads = 0
        self.commits = 0
        self.bytes_written = 0
        #: Filled when opening an existing file: what recovery found/did.
        self.recovery_report: dict[str, Any] = {}

        existing = os.path.exists(self.path) and os.path.getsize(self.path) > 0
        if existing:
            self._handle = open(self.path, "r+b")
            self._open_existing(page_bytes)
        else:
            self.page_bytes = (
                page_bytes if page_bytes is not None else DEFAULT_PAGE_BYTES
            )
            self._handle = open(self.path, "w+b")
            self._raw_write_at(0, MAGIC)
            self._write_superblock()
            self._sync(self._handle)
        self._wal = self._make_wal_writer()

    def _make_wal_writer(self) -> WALWriter:
        return WALWriter(
            self.wal_path,
            self._raw_write,
            fault_fire=self._fire_fault,
            sync=self._sync_raw,
            sync_dir=self._sync_dir,
        )

    # ------------------------------------------------------------------
    # physical writes (single funnel; fault injection lives here)
    # ------------------------------------------------------------------

    def install_faults(self, injector: Any) -> "FileBackend":
        """Attach a :class:`~repro.faults.FaultInjector` (or ``None``)."""
        self.fault_injector = injector
        return self

    def _raw_write(self, handle: Any, data: bytes) -> None:
        """Append/write ``data`` through the fault-injection funnel."""
        if self._crashed:
            raise CrashError("backend has crashed; reopen to recover")
        action = self._pending_write_fault
        if action is None and self.fault_injector is not None:
            action = self.fault_injector.fire("backend.raw_write", size=len(data))
        if action is not None:
            self._pending_write_fault = None
            self._perform_write_fault(action, handle, data)  # latency falls through
        handle.write(data)
        self.bytes_written += len(data)

    def _perform_write_fault(self, action: Any, handle: Any, data: bytes) -> None:
        """Inject one fault into a physical write.  Returns (letting the
        write proceed) only for a latency spike; every other kind raises."""
        from ..faults.plan import IO_ERROR, LATENCY, SHORT_WRITE, TORN_WRITE

        if action.kind == LATENCY:
            _time.sleep(action.delay)
            return
        if action.kind == IO_ERROR:
            # Transient and side-effect free: nothing was written, the
            # caller may retry the whole commit.
            raise TransientIOError(
                f"injected transient I/O error at backend.raw_write "
                f"(invocation {action.invocation})"
            )
        if action.kind in (TORN_WRITE, SHORT_WRITE):
            # Put a prefix on disk — half for a torn write, the seeded cut
            # for a short write — then die, like a power loss mid-sector.
            cut = len(data) // 2 if action.kind == TORN_WRITE else action.cut or 0
            cut = min(cut, len(data))
            if cut:
                handle.write(data[:cut])
            self._crashed = True
            raise CrashError(
                f"simulated crash: {action.kind} after {cut} of {len(data)} bytes"
            )
        from ..faults.plan import apply_simple_action

        apply_simple_action(action)

    def _hook_write_site(self, hook: str, size: int) -> None:
        """Named write-site hook (page/superblock image about to go out).

        Torn/short actions are deferred onto the next physical write so
        the fault tears the actual image bytes; transient/latency actions
        apply immediately (before any bytes move)."""
        action = self.fault_injector.fire(hook, size=size)
        if action is None:
            return
        from ..faults.plan import SHORT_WRITE, TORN_WRITE, apply_simple_action

        if action.kind in (TORN_WRITE, SHORT_WRITE):
            self._pending_write_fault = action
            return
        apply_simple_action(action)

    def _raw_write_at(self, offset: int, data: bytes) -> None:
        self._handle.seek(offset)
        self._raw_write(self._handle, data)

    def _sync(self, handle: Any) -> None:
        handle.flush()  # surface buffered writes to the OS (and readers)
        if self.fsync:
            if self.fault_injector is not None:
                action = self.fault_injector.fire("backend.fsync")
                if action is not None:
                    self._perform_fsync_fault(action)
            os.fsync(handle.fileno())

    def _sync_raw(self, handle: Any) -> None:
        """Like :meth:`_sync` but without the ``backend.fsync`` hook.

        Used for the post-truncate/post-seal sync of the (now empty or
        renamed) log: the transaction is already durable in pages +
        superblock by then, so an injected fsync failure there would
        crash the machine *after* the commit point — a window the chaos
        oracle cannot attribute.  The hookable crash point for this
        window is ``wal.truncate``, fired at entry while the log still
        holds the transaction.
        """
        handle.flush()
        if self.fsync:
            os.fsync(handle.fileno())

    def _sync_dir(self, dirpath: str) -> None:
        """fsync a directory so renames/truncations within it are durable.

        A no-op unless the backend was opened with ``fsync=True`` — the
        same policy gate as :meth:`_sync`; metadata-only, so it bypasses
        the write-fault funnel (there are no bytes to tear).
        """
        if not self.fsync:
            return
        fd = os.open(dirpath or ".", os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)

    def _perform_fsync_fault(self, action: Any) -> None:
        from ..faults.plan import FSYNC_FAIL, LATENCY, apply_simple_action

        if action.kind == FSYNC_FAIL:
            # fsyncgate semantics: a failed fsync may have dropped dirty
            # pages; nothing after it can be trusted, so the backend dies
            # and recovery must rebuild from the WAL on reopen.
            self._crashed = True
            raise FsyncFailedError(
                f"injected fsync failure (invocation {action.invocation})"
            )
        if action.kind == LATENCY:
            _time.sleep(action.delay)
            return
        apply_simple_action(action)

    # ------------------------------------------------------------------
    # superblock
    # ------------------------------------------------------------------

    def _superblock_dict(self) -> dict[str, Any]:
        return {
            "page_bytes": self.page_bytes,
            "next_id": self._next_id,
            "free_ids": list(self._free_ids),
            "on_disk": sorted(self._on_disk),
            "meta": self.metadata,
        }

    def _write_superblock(self, state: dict[str, Any] | None = None) -> None:
        payload = json.dumps(
            state if state is not None else self._superblock_dict(),
            sort_keys=True,
        ).encode("utf-8")
        if self.fault_injector is not None:
            self._hook_write_site("backend.superblock", len(payload))
        if _SUPER_HEADER.size + len(payload) > SUPERBLOCK_BYTES:
            # State outgrew the fixed region: write it as an overflow blob
            # just past the last page (later page growth overwrites dead
            # blobs; each commit re-points) and store only a pointer
            # inline.  The blob lands before the pointer, and the WAL's
            # committed META can rebuild both, so every crash window stays
            # recoverable.
            blob_offset = self._page_offset(self._next_id)
            blob = _SUPER_HEADER.pack(len(payload), zlib.crc32(payload)) + payload
            self._raw_write_at(blob_offset, blob)
            payload = json.dumps(
                {"overflow": {"offset": blob_offset, "length": len(payload)}}
            ).encode("utf-8")
        image = _SUPER_HEADER.pack(len(payload), zlib.crc32(payload)) + payload
        self._raw_write_at(len(MAGIC), image.ljust(SUPERBLOCK_BYTES, b"\0"))

    def _apply_superblock(self, state: dict[str, Any]) -> None:
        self.page_bytes = state["page_bytes"]
        self._next_id = state["next_id"]
        self._free_ids = list(state["free_ids"])
        self._on_disk = set(state["on_disk"])
        self.metadata = state.get("meta", {})

    # ------------------------------------------------------------------
    # open / recovery
    # ------------------------------------------------------------------

    def _open_existing(self, page_bytes: int | None) -> None:
        self._handle.seek(0)
        if self._handle.read(len(MAGIC)) != MAGIC:
            raise PersistError(f"{self.path} is not a page file (bad magic)")
        state = resolve_superblock(self._handle)
        scan = scan_wal(self.wal_path)
        if scan.committed:
            # Committed-but-unapplied transactions: replay them (page
            # writes are idempotent), newest metadata wins.
            last_meta: dict[str, Any] | None = None
            for txn in scan.transactions:
                if txn.meta is not None:
                    last_meta = txn.meta
            if last_meta is None:
                raise RecoveryError(
                    f"{self.wal_path}: committed transaction carries no metadata"
                )
            self._apply_superblock(last_meta["superblock"])
            for txn in scan.transactions:
                for block_id, image in txn.puts.items():
                    self._write_page_image(block_id, image)
            self._write_superblock()
            self._sync(self._handle)
        elif state is not None:
            self._apply_superblock(state)
        else:
            raise RecoveryError(
                f"{self.path}: superblock unreadable and no committed WAL "
                "transaction supplies a replacement"
            )
        if self.retain_wal:
            # The committed tail is retained history (it will be sealed
            # into a segment); only a torn suffix is cut away, at the
            # clean commit boundary the scan reports.
            if scan.torn_tail:
                self._make_wal_writer().trim(scan.committed_bytes)
        elif scan.committed or scan.torn_tail:
            self._make_wal_writer().truncate()
        if page_bytes is not None and page_bytes != self.page_bytes:
            raise StorageError(
                f"{self.path} has {self.page_bytes}-byte pages, not {page_bytes}"
            )
        self.recovery_report = {
            "replayed_transactions": scan.committed,
            "discarded_tail_bytes": scan.tail_bytes if scan.torn_tail else 0,
            "superblock_source": "wal" if scan.committed else "file",
        }
        registry = get_registry()
        registry.counter(
            "repro_recovery_opens_total", help="page files opened with recovery"
        ).inc()
        if scan.committed:
            registry.counter(
                "repro_recovery_replayed_txns_total",
                help="committed WAL transactions replayed at open",
            ).inc(scan.committed)

    # ------------------------------------------------------------------
    # pages
    # ------------------------------------------------------------------

    def _page_offset(self, block_id: int) -> int:
        return len(MAGIC) + SUPERBLOCK_BYTES + (block_id - 1) * self.page_bytes

    def _write_page_image(self, block_id: int, image: bytes) -> None:
        if self.fault_injector is not None:
            self._hook_write_site("backend.page_write", len(image))
        framed = _PAGE_HEADER.pack(len(image)) + image
        if len(framed) > self.page_bytes:
            raise StorageError(
                f"block {block_id} needs {len(framed)} bytes but pages hold "
                f"{self.page_bytes}; raise page_bytes"
            )
        self._raw_write_at(
            self._page_offset(block_id), framed.ljust(self.page_bytes, b"\0")
        )
        self._on_disk.add(block_id)
        self.page_writes += 1

    def _read_page(self, block_id: int) -> Any:
        # Positioned read on the descriptor: readers under the shared
        # latch cold-read concurrently, and seek + read on the one shared
        # handle would let two of them swap pages.  pread bypasses the
        # handle's userspace write buffer, which is safe because a block
        # is only ever cold-read once it is in ``_on_disk`` and out of the
        # object table — and every path that writes a page image (commit,
        # recovery replay, follower apply) flushes the handle via
        # ``_sync`` before the block can leave the object table.
        framed = os.pread(
            self._handle.fileno(), self.page_bytes, self._page_offset(block_id)
        )
        self.page_reads += 1
        (length,) = _PAGE_HEADER.unpack_from(framed)
        return decode_block_payload(framed[_PAGE_HEADER.size : _PAGE_HEADER.size + length])

    # ------------------------------------------------------------------
    # StorageBackend interface
    # ------------------------------------------------------------------

    def read(self, block_id: int) -> Any:
        # One dict probe: concurrent cold readers install into the table,
        # so a get-then-contains pair could see "absent" then "present".
        payload = self._objects.get(block_id, _ABSENT)
        if payload is not _ABSENT:
            return payload  # may be a stored literal None
        if not self.exists(block_id):
            raise KeyError(block_id)
        payload = self._read_page(block_id)
        self._objects[block_id] = payload
        return payload

    def write(self, block_id: int, payload: Any) -> None:
        if not self.exists(block_id):
            raise KeyError(block_id)
        self._objects[block_id] = payload

    def exists(self, block_id: int) -> bool:
        if block_id in self._objects:
            return True
        return (
            0 < block_id < self._next_id
            and block_id not in self._free_set()
            and block_id in self._on_disk
        )

    def _free_set(self) -> set[int]:
        return set(self._free_ids)

    def block_ids(self) -> Iterator[int]:
        free = self._free_set()
        ids = set(self._objects) | {
            block_id for block_id in self._on_disk if block_id not in free
        }
        return iter(sorted(ids))

    def __len__(self) -> int:
        return sum(1 for _ in self.block_ids())

    def _install(self, block_id: int, payload: Any) -> None:
        self._objects[block_id] = payload

    def _discard(self, block_id: int) -> None:
        present = block_id in self._objects
        if not present and not self.exists(block_id):
            raise KeyError(block_id)
        self._objects.pop(block_id, None)
        self._on_disk.discard(block_id)

    # ------------------------------------------------------------------
    # durability
    # ------------------------------------------------------------------

    def commit(self, dirty_ids: Iterable[int]) -> None:
        """Make the listed blocks + allocation state + metadata durable.

        WAL first (with commit record), then pages, then superblock, then
        truncate the log — the protocol documented in
        :mod:`repro.storage.wal`.
        """
        if self.fault_injector is not None:
            self._fault_point("backend.commit")
        with trace.span("backend.commit") as span:
            bytes_before = self.bytes_written
            puts: dict[int, bytes] = {}
            for block_id in dirty_ids:
                if block_id in self._objects:
                    puts[block_id] = encode_block_payload(self._objects[block_id])
            if self.metadata_provider is not None:
                self.metadata = self.metadata_provider()
                if self.metadata_decorator is not None:
                    self.metadata = self.metadata_decorator(self.metadata)
            # The WAL's META record embeds the full superblock so replay can
            # rebuild it even if the on-file superblock write was torn.
            after_state = self._superblock_dict()
            after_state["on_disk"] = sorted(self._on_disk | set(puts))
            self._wal.append_transaction(puts, {"superblock": after_state})
            self._sync(self._wal._handle)
            for block_id, image in puts.items():
                self._write_page_image(block_id, image)
            self._write_superblock(after_state)
            # Explicit barrier: pages + superblock must be durable before
            # the log stops being the source of truth.  Truncating (or, in
            # retain mode, letting the tail stand as history) ahead of
            # this sync would leave a window where neither the file nor
            # the log holds the committed state.
            self._sync(self._handle)
            if not self.retain_wal:
                self._wal.truncate()
            self.commits += 1
            if span.recording:
                span.add("backend.pages", len(puts))
                span.add("backend.bytes", self.bytes_written - bytes_before)
        get_registry().counter(
            "repro_backend_commits_total",
            help="WAL-guarded page-file commits",
        ).inc()

    def checkpoint(self) -> None:
        """Force a commit of every resident object (plus metadata)."""
        self.commit(list(self._objects))

    # ------------------------------------------------------------------
    # WAL segmentation (retain_wal mode; see repro.storage.walseg)
    # ------------------------------------------------------------------

    def _require_retain(self) -> dict[str, Any]:
        if not self.retain_wal or self.wal_manifest is None:
            raise StorageError(
                f"{self.path}: WAL segmentation requires retain_wal=True"
            )
        return self.wal_manifest

    def seal_wal_segment(self) -> int | None:
        """Rotate the live log into a sealed, numbered segment file.

        Returns the new segment's id, or ``None`` when the live log holds
        no transactions (sealing would produce an empty segment).  The
        caller must hold whatever latch guards commits — rotation must
        not interleave with a transaction being appended.
        """
        manifest = self._require_retain()
        if (
            not os.path.exists(self.wal_path)
            or os.path.getsize(self.wal_path) <= len(WAL_MAGIC)
        ):
            return None
        seg_id = manifest["next_segment"]
        self._wal.seal_to(segment_path(self.path, seg_id))
        manifest["segments"].append(seg_id)
        manifest["next_segment"] = seg_id + 1
        write_wal_manifest(self.path, manifest, fsync=self.fsync)
        get_registry().counter(
            "repro_wal_segments_sealed_total",
            help="live WAL rotations into sealed segment files",
        ).inc()
        return seg_id

    def record_checkpoint_image(self, extra: dict[str, Any] | None = None) -> dict[str, Any]:
        """Copy the page file as the checkpoint image for the *next*
        segment and record it in the manifest.

        Call after :meth:`checkpoint` + :meth:`seal_wal_segment`: the
        image then reflects every sealed segment, so restoring it and
        replaying segments ``>= record["segment"]`` reproduces any later
        state.  ``extra`` (e.g. the service epoch at checkpoint time) is
        stored verbatim in the record for lag accounting.
        """
        manifest = self._require_retain()
        seg = manifest["next_segment"]
        image = checkpoint_image_path(self.path, seg)
        self._handle.flush()
        tmp = image + ".tmp"
        with open(self.path, "rb") as src, open(tmp, "wb") as dst:
            shutil.copyfileobj(src, dst, 1 << 20)
            if self.fsync:
                dst.flush()
                os.fsync(dst.fileno())
            size = dst.tell()
        os.replace(tmp, image)
        self._sync_dir(os.path.dirname(image) or ".")
        record: dict[str, Any] = {
            "segment": seg,
            "image": os.path.basename(image),
            "bytes": size,
        }
        if extra:
            record.update(extra)
        manifest["checkpoints"].append(record)
        write_wal_manifest(self.path, manifest, fsync=self.fsync)
        get_registry().counter(
            "repro_wal_checkpoint_images_total",
            help="checkpoint images recorded in the WAL manifest",
        ).inc()
        return record

    def drop_clean_objects(self) -> None:
        """Evict the object table (committed blocks only).

        Diagnostics/tests: forces subsequent reads down the page-decode
        path, proving the on-disk images are the real structure.  Blocks
        never committed stay resident — dropping them would lose data.
        """
        for block_id in list(self._objects):
            if block_id in self._on_disk:
                del self._objects[block_id]

    def close(self) -> None:
        self._wal.close()
        if not self._handle.closed:
            self._handle.close()

    def bulk_restore(
        self, blocks: dict[int, Any], next_id: int, free_ids: list[int]
    ) -> None:
        """Import a full structure (snapshot conversion) and commit it."""
        self._objects = dict(blocks)
        self._on_disk = set()
        self._next_id = next_id
        self._free_ids = list(free_ids)
        self.checkpoint()
