"""Persistence: snapshots, and checkpoint/recovery for file backends.

Two durability paths share one payload codec
(:mod:`repro.storage.codec`):

**Snapshots** (:func:`save_scheme` / :func:`load_scheme`,
:func:`save_document` / :func:`load_document`): a compact varint-encoded
container built in memory and written in one atomic replace —

* a magic string and a JSON header (scheme class, config, counters, LIDF
  directory, block-store allocation state);
* a block count, then per block its id and its
  :func:`~repro.storage.codec.encode_block_payload` image, back to back.

Varints keep the format correct even for values that outgrow fixed-width
fields (naive-k label values with large k, W-BOX range origins after many
root splits).

**File backends** (:func:`create_store`, :func:`open_store`,
:func:`checkpoint_scheme`): the scheme's journal is its
:class:`~repro.storage.filebackend.FileBackend`'s one ``owner``
(:mod:`repro.storage.owner`), journaling with every commit only what it
*changed* — the differences of its integer scalars and the LIDF's
allocation ops — and its complete description (class, config, LIDF
directory) with every checkpoint; the first checkpoint installs it.
The page file plus write-ahead log is thereby self-describing at all
times: :func:`open_file_scheme` builds the scheme the base state
describes, its journal adopts that state, and :func:`replay_transaction`
re-runs every logged tape past it — as a follower does with each
shipped one.  :func:`checkpoint_scheme` is the explicit flush: the
dirty pages written into the page file and the log sealed.  The historical
whole-structure snapshot is thereby just one checkpoint format among
two.

This module knows no concrete scheme.  What a scheme's persistent state
*is* belongs to the scheme (``persist_state`` / ``restore_state`` /
``from_persisted`` on :class:`~repro.core.interface.LabelingScheme`, and
the same pair on the LIDF :class:`~repro.storage.HeapFile`); which class a
stored name means belongs to :mod:`repro.core.registry`.  Any registered
scheme round-trips::

    save_scheme(scheme, "labels.box")
    scheme = load_scheme("labels.box")

The reloaded scheme has fresh I/O counters; LIDs remain valid (that is the
whole point of the LIDF).
"""

from __future__ import annotations

import dataclasses
import json
import os
from typing import Any, Callable

from .config import BoxConfig
from .core.batch import decode_tape
from .core.registry import scheme_class, scheme_factory
from .errors import PersistError, ProtocolError, RecoveryError
from .storage import BlockStore, Disk, FileBackend, HeapFile
from .storage.codec import (
    append_uvarints,
    check_count,
    decode_block_payload_at,
    encode_block_payload,
    scan_uvarint,
    scan_uvarints,
    uvarint_bytes,
)
from .storage.owner import FoldedOwner
from .storage.shardlayout import read_manifest, shard_page_path, write_manifest

__all__ = [
    "MAGIC",
    "PersistError",
    "save_scheme",
    "load_scheme",
    "save_document",
    "load_document",
    "checkpoint_scheme",
    "full_checkpoint",
    "restore_to_checkpoint",
    "open_file_scheme",
    "replay_transaction",
    "create_sharded_backends",
    "create_store",
    "open_store",
    "scheme_metadata_header",
    "restore_scheme_state",
    "read_snapshot_header",
]

#: Format version 2: block bodies code rows of LIDs and block pointers as
#: zigzag deltas; version 1 wrote them as plain varint rows.
MAGIC = b"BOXS0002"


# ----------------------------------------------------------------------
# public API
# ----------------------------------------------------------------------


def scheme_metadata_header(scheme: Any) -> dict:
    """The complete self-description of a scheme, minus block payloads:
    class name, config, counters, the LIDF directory and the store's
    allocation state.

    This is both the snapshot header and — journaled by every file-backend
    *checkpoint* via :func:`checkpoint_scheme` — the directory that makes
    a page file recoverable into a working scheme (commits in between
    journal only deltas against it).  O(structure): never called
    on the commit path.  Free lists keep their exact recycling order so a
    reopened scheme allocates (and therefore counts I/Os) identically to
    the original process.
    """
    type_name = type(scheme).__name__
    if scheme_class(type_name) is not type(scheme):
        raise PersistError(f"cannot persist scheme type {type_name}")
    backend = scheme.store.backend
    return {
        "scheme": type_name,
        "config": {
            f.name: getattr(scheme.config, f.name)
            for f in dataclasses.fields(scheme.config)
        },
        "meta": scheme.persist_state(),
        "lidf": scheme.lidf.persist_state(),
        "store": {
            "next_id": backend.next_id,
            "free_ids": list(backend.free_ids),
        },
    }


def save_scheme(scheme: Any, path: str) -> None:
    """Serialize ``scheme`` (structure, LIDF, counters) to ``path``,
    replacing it atomically (:meth:`~repro.storage.Disk.replace`)."""
    Disk().replace(path, [_snapshot_image(scheme)])


def _snapshot_image(scheme: Any) -> bytearray:
    header = scheme_metadata_header(scheme)
    store: BlockStore = scheme.store
    # The snapshot format historically stores both free lists sorted;
    # kept for format stability (load re-heapifies / re-lists anyway).
    header["lidf"]["free"] = sorted(header["lidf"]["free"])
    header["store"]["free_ids"] = sorted(header["store"]["free_ids"])
    header_bytes = json.dumps(header).encode("utf-8")
    image = bytearray(MAGIC + len(header_bytes).to_bytes(8, "big") + header_bytes)
    block_ids = sorted(store.block_ids())
    image += uvarint_bytes(len(block_ids))
    for block_id in block_ids:
        image += uvarint_bytes(block_id)
        image += encode_block_payload(store.peek(block_id))
    return image


def save_document(document: Any, path: str) -> None:
    """Serialize a whole :class:`~repro.core.document.LabeledDocument`:
    the labeling structure plus the XML tree and the element↔LID binding.

    The binding is stored as the LID of every tag in document order, so the
    reload can re-walk the (re-parsed) tree and reattach each element to
    its labels — which is what makes a saved file *queryable*, not just
    inspectable.
    """
    from .core.document import LabeledDocument
    from .xml.model import TagKind, document_tags
    from .xml.writer import serialize

    if not isinstance(document, LabeledDocument):
        raise PersistError("save_document expects a LabeledDocument")
    if document.root is None:
        raise PersistError("cannot save an empty document")
    image = _snapshot_image(document.scheme)
    lids = []
    for tag in document_tags(document.root):
        if tag.kind is TagKind.START:
            lids.append(document.start_lid(tag.element))
        else:
            lids.append(document.end_lid(tag.element))
    xml_bytes = serialize(document.root).encode("utf-8")
    image += b"DOCSECT1" + len(xml_bytes).to_bytes(8, "big") + xml_bytes
    image += uvarint_bytes(len(lids))
    append_uvarints(image, lids)
    Disk().replace(path, [image])


def load_document(path: str) -> Any:
    """Load a file written by :func:`save_document` back into a fully
    bound :class:`~repro.core.document.LabeledDocument`."""
    from .core.document import LabeledDocument
    from .xml.model import TagKind, document_tags
    from .xml.parser import parse

    scheme, remainder = _load_scheme_and_rest(path)
    if remainder[:8] != b"DOCSECT1":
        raise PersistError(f"{path} has no document section (saved with save_scheme?)")
    xml_length = int.from_bytes(remainder[8:16], "big")
    xml_text = remainder[16 : 16 + xml_length].decode("utf-8")
    body = remainder[16 + xml_length :]
    count, pos = scan_uvarint(body, 0)
    lids, _ = scan_uvarints(body, pos, count)

    root = parse(xml_text)
    document = LabeledDocument(scheme)  # bind without bulk loading
    document.root = root
    for tag, lid in zip(document_tags(root), lids):
        if tag.kind is TagKind.START:
            document._start_lids[tag.element] = lid
        else:
            document._end_lids[tag.element] = lid
    if len(document._start_lids) * 2 != count:
        raise PersistError("document section is inconsistent")
    return document


def load_scheme(path: str) -> Any:
    """Load a scheme previously written by :func:`save_scheme` (files from
    :func:`save_document` also work; the document section is ignored).

    The returned scheme has fresh I/O counters; every LID saved remains
    valid against it.
    """
    scheme, _ = _load_scheme_and_rest(path)
    return scheme


def read_snapshot_header(handle: Any, path: str) -> dict:
    """Read a snapshot's magic and JSON header (a
    :func:`scheme_metadata_header` dict) from the open binary ``handle``,
    leaving it at the block section."""
    magic = handle.read(len(MAGIC))
    if magic == b"BOXS0001":
        raise PersistError(
            f"{path} is a format-version-1 snapshot; this build reads version 2"
        )
    if magic != MAGIC:
        raise PersistError(f"{path} is not a saved BOX structure")
    header_length = int.from_bytes(handle.read(8), "big")
    return json.loads(handle.read(header_length).decode("utf-8"))


def _load_scheme_and_rest(path: str) -> tuple[Any, bytes]:
    with open(path, "rb") as handle:
        header = read_snapshot_header(handle, path)
        data = handle.read()
    blocks: dict[int, Any] = {}
    count, pos = scan_uvarint(data, 0)
    check_count(data, pos, count)
    for _ in range(count):
        block_id, pos = scan_uvarint(data, pos)
        blocks[block_id], pos = decode_block_payload_at(data, pos)

    scheme = _instantiate_scheme(header)
    store: BlockStore = scheme.store
    store.backend.bulk_restore(
        blocks, header["store"]["next_id"], list(header["store"]["free_ids"])
    )
    store.stats.reset()
    restore_scheme_state(scheme, header)
    return scheme, data[pos:]


def _instantiate_scheme(header: dict) -> Any:
    """Build a fresh (empty) scheme of the class/flags the header names.

    The scheme comes with a default in-memory store; callers either bulk
    restore into its backend (snapshots) or swap the store for a
    file-backed one (:func:`open_file_scheme`)."""
    cls = scheme_class(header["scheme"])
    if cls is None:
        raise PersistError(f"cannot load scheme type {header['scheme']}")
    return cls.from_persisted(BoxConfig(**header["config"]), header["meta"])


def restore_scheme_state(scheme: Any, header: dict) -> None:
    """Restore the LIDF directory and the scheme's own state from a
    :func:`scheme_metadata_header` dict (a snapshot header).  The block
    payloads themselves must already be in ``scheme.store``."""
    scheme.lidf.restore_state(header["lidf"])
    scheme.restore_state(header["meta"])


# ----------------------------------------------------------------------
# file-backend checkpoint / recovery
# ----------------------------------------------------------------------


class _SchemeJournal(FoldedOwner):
    """A file backend's owner once a scheme is attached: journals its
    integers and LIDF ops per commit and its description per checkpoint.
    Takes over the journaled scalars and stamp from the backend's owner."""

    def __init__(self, scheme: Any) -> None:
        self.scheme = scheme
        previous = scheme.store.backend.owner
        self.scalars, self.stamp = previous.scalars, previous.stamp
        if scheme.lidf.journal is None:
            scheme.lidf.journal = []
        self.ops = scheme.lidf.journal

    def _integers(self) -> list[int]:
        return [v for v in self.scheme.persist_state().values() if type(v) is int]

    def _description(self) -> tuple[dict, dict]:
        header = scheme_metadata_header(self.scheme)
        lidf = header.pop("lidf")
        del header["store"]  # the backend journals its own allocation state
        return lidf, header

    def restore_scalars(self) -> None:
        """Hand the journaled integers back to the scheme."""
        journaled = iter(self.scalars[1:])
        self.scheme.restore_state(
            {
                key: next(journaled) if type(value) is int else value
                for key, value in self.scheme.persist_state().items()
            }
        )


def _attach(scheme: Any) -> FileBackend:
    """Make ``scheme``'s journal the owner of its file backend (once)."""
    backend = scheme.store.backend
    if not isinstance(backend, FileBackend):
        raise PersistError(
            f"scheme's store runs on {type(backend).__name__}, not a FileBackend"
        )
    owner = backend.owner
    if not (isinstance(owner, _SchemeJournal) and owner.scheme is scheme):
        backend.owner = _SchemeJournal(scheme)
    return backend


def checkpoint_scheme(scheme: Any) -> FileBackend:
    """Flush ``scheme`` to its file backend, making its journal the
    backend's owner on the first call: every block dirtied since the last
    checkpoint goes into a fresh extent of the page file, the scheme's
    complete metadata into a new directory, and the log is sealed into
    the next segment, which the retention rule keeps only while a
    checkpoint image needs it (:mod:`repro.storage.walseg`).  The
    checkpoint enforces the durability order explicitly: page images ->
    directory -> fsync barrier -> header slot -> fsync -> seal, so a crash
    at any point recovers to the state before or after it.  The file is
    then a complete, self-describing checkpoint —
    the file-backend counterpart of :func:`save_scheme`.  Returns the
    backend.

    The caller must hold the latch that guards commits — under a running
    service use :func:`repro.repl.rotate_service_wal`, which latches."""
    backend = _attach(scheme)
    backend.checkpoint()
    return backend


def full_checkpoint(scheme: Any, extra: dict | None = None) -> dict:
    """:func:`checkpoint_scheme`, then record the page file as the
    checkpoint image for the next segment.

    The image reflects every sealed segment, so restoring the returned
    record's image and replaying segments ``>= record["segment"]``
    reproduces any later state (see :mod:`repro.storage.walseg`).
    ``extra`` (e.g. the service epoch) is stored in the record verbatim.
    Same latching requirement as :func:`checkpoint_scheme`; under a
    running service use :func:`repro.repl.checkpoint_service`.
    """
    return checkpoint_scheme(scheme).record_checkpoint_image(extra)


def restore_to_checkpoint(
    path: str,
    target: str,
    upto_segment: int | None = None,
) -> dict:
    """Point-in-time recovery: rebuild ``path``'s state at a recorded
    checkpoint + sealed-segment prefix into a fresh page file ``target``.

    Picks the newest checkpoint whose replay range fits
    ``upto_segment`` (``None`` = all sealed segments), copies its image
    to ``target``, then replays each in-range segment through the stock
    recovery path: the segment file is placed as ``target``'s WAL, the
    file is opened — which re-runs its tapes (:func:`replay_transaction`)
    — and checkpointed, which writes their pages and seals the log away.
    A segment that does not follow the state (its primary checkpointed
    blocks no tape re-creates) is a :class:`~repro.errors.RecoveryError`.
    Every mechanism is the ordinary crash path — PITR adds no second way
    to interpret the log.  Returns the checkpoint record used; a checkpoint
    image below the retention horizon is gone, and asking for it raises
    :class:`PersistError`.
    """
    from .storage.walseg import read_wal_manifest, segment_path

    manifest = read_wal_manifest(path)
    segments = [
        seg
        for seg in manifest["segments"]
        if upto_segment is None or seg <= upto_segment
    ]
    candidates = [
        record
        for record in manifest["checkpoints"]
        if upto_segment is None or record["segment"] <= upto_segment + 1
    ]
    if not candidates:
        raise PersistError(
            f"{path}: no checkpoint image covers segments <= {upto_segment}"
        )
    record = candidates[-1]
    image = os.path.join(os.path.dirname(path) or ".", record["image"])
    disk = Disk()
    disk.copy(image, target)
    for seg in segments:
        if seg < record["segment"]:
            continue
        disk.copy(segment_path(path, seg), target + ".wal")
        checkpoint_scheme(open_file_scheme(target)).close()
    return record


def replay_transaction(scheme: Any, txn: Any) -> bool:
    """Bring ``scheme`` forward by one logged transaction: the one replay
    crash recovery, point-in-time restore and replication followers share.

    A commit's tape re-runs batch by batch through
    :meth:`~repro.core.interface.LabelingScheme.execute_batch`, in one
    durable scope under the backend's
    :meth:`~repro.storage.FileBackend.replaying`: the commit must
    re-create the logged DELTA and tape byte for byte — so every batch
    must end as it was logged, ok or raising the same error class — or a
    :class:`~repro.errors.RecoveryError` names the LSN.  So does a tape
    that does not follow the state — a gap in the log, such as a primary's
    checkpoint of blocks no tape re-creates.  Returns False for a
    transaction the state already includes.
    """
    backend = scheme.store.backend
    if txn.lsn <= backend.lsn:
        return False
    if txn.lsn != backend.lsn + 1:
        raise RecoveryError(
            f"{backend.path}: log transaction {txn.lsn} cannot follow state {backend.lsn}"
        )
    if txn.ops is None:
        raise RecoveryError(f"{backend.path}: log transaction {txn.lsn} carries no tape")
    try:
        tape = decode_tape(txn.ops)
    except ProtocolError as error:
        raise RecoveryError(f"{backend.path}: log transaction {txn.lsn}: {error}") from None
    with backend.replaying(txn), scheme.store.durable():
        for ops, _ended in tape:
            try:
                scheme.execute_batch(ops)
            except Exception:  # noqa: BLE001 - how it ended is on the re-run's tape
                pass
    return True


def open_file_scheme(path: str, fsync: bool = False) -> Any:
    """Open a page file written through a scheme-owned
    :class:`~repro.storage.filebackend.FileBackend` and return a working
    scheme (the tapes the WAL holds past its base re-run first).

    The reopened scheme has fresh I/O counters; every committed LID
    resolves to its pre-crash label.  The backend's ``recovery_report``
    says what recovery found and did.
    """
    backend = FileBackend(path, fsync=fsync)
    base = backend.owner
    if "scheme" not in base.meta:
        backend.close()
        raise PersistError(
            f"{path} carries no scheme metadata; was it written without "
            "checkpoint_scheme()?"
        )
    # Build the scheme shell first (it allocates its empty root into a
    # throwaway memory store), then swap in the recovered file-backed
    # store so the backend's allocation state is untouched.
    scheme = _instantiate_scheme(base.meta)
    store = BlockStore(scheme.config, backend=backend)
    scheme.store = store
    scheme.lidf = HeapFile(store, scheme.config)
    scheme.lidf.restore_state(base.lidf)
    # The scheme *is* the backend's journaled state: its journal adopts
    # the base state, no checkpoint needed.
    _attach(scheme).owner.restore_scalars()
    tapes, backend.tapes = backend.tapes, []
    try:
        for txn in tapes:
            replay_transaction(scheme, txn)
    except BaseException:
        backend.close()
        raise
    store.stats.reset()
    return scheme


# ----------------------------------------------------------------------
# sharded stores (directory of per-shard page files + manifest)
# ----------------------------------------------------------------------


def create_sharded_backends(root: str, n_shards: int, fsync: bool = False) -> list[FileBackend]:
    """Create a sharded store directory: the manifest plus one fresh
    :class:`~repro.storage.filebackend.FileBackend` per shard.

    :func:`create_store` builds one scheme per returned backend (all with
    the same config); this half is kept apart so its disk traces stay
    pinned on their own.  Each shard file is an ordinary self-describing
    page file; the manifest only records the shard count and the
    global-LID codec.
    """
    write_manifest(root, n_shards, fsync=fsync)
    return [FileBackend(shard_page_path(root, shard), fsync=fsync) for shard in range(n_shards)]


def create_store(
    root: str | None,
    scheme: str,
    shards: int = 1,
    *,
    config: BoxConfig,
    populate: Callable[[list[Any]], Any] | None = None,
    fsync: bool = False,
) -> tuple[list[Any], Any]:
    """Create a store of ``shards`` fresh schemes of the registry name
    ``scheme`` → ``(schemes, loaded)``, the one way a store is created.

    ``root=None`` gives in-memory schemes.  Otherwise ``root`` becomes a
    sharded store directory (:func:`create_sharded_backends`, one shard
    included) and every scheme takes its first checkpoint, which makes it
    its backend's owner.  ``populate(schemes)`` then fills the schemes and
    its result comes back as ``loaded``; a file store checkpoints again
    after it, so a kill before the first commit reopens the loaded state.
    A ``root`` that is a non-empty file or directory raises
    :class:`PersistError`: creating never appends to a store that exists
    (:func:`open_store` reopens one).
    """
    factory = scheme_factory(scheme)
    if root is None:
        schemes = [factory(config, None) for _ in range(shards)]
        return schemes, None if populate is None else populate(schemes)
    if os.path.isdir(root) and os.listdir(root) or os.path.isfile(root) and os.path.getsize(root):
        raise PersistError(f"{root} already holds a store; refusing to create over it")
    backends = create_sharded_backends(root, shards, fsync=fsync)
    try:
        schemes = [factory(config, BlockStore(config, backend=backend)) for backend in backends]
        for each in schemes:
            checkpoint_scheme(each)
        loaded = None
        if populate is not None:
            loaded = populate(schemes)
            for each in schemes:
                checkpoint_scheme(each)
    except BaseException:
        for backend in backends:  # a failed creation leaves no file open
            backend.close()
        raise
    return schemes, loaded


def open_store(path: str, *, fsync: bool = False) -> list[Any]:
    """Reopen a store → its schemes in shard order (shard ``i`` is
    element ``i``, which the global-LID codec requires), the one way a
    store is reopened.

    ``path`` is a sharded store directory or a bare page file.  Each page
    file goes through :func:`open_file_scheme` on its own, so crash
    recovery runs per shard: a shard whose writer died recovers from its
    own WAL while untouched shards reopen cleanly.  A shard that fails to
    open closes the shards opened before it, then the error propagates.
    """
    if not os.path.isdir(path):
        return [open_file_scheme(path, fsync=fsync)]
    schemes: list[Any] = []
    try:
        for shard in range(read_manifest(path)["n_shards"]):
            schemes.append(open_file_scheme(shard_page_path(path, shard), fsync=fsync))
    except BaseException:
        for each in schemes:  # a failed open leaves no file open
            each.store.backend.close()
        raise
    return schemes
