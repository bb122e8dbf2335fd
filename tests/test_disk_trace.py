"""The file-system trace of the store's durable operations, pinned.

Every durable effect goes through :class:`~repro.storage.disk.Disk`
(``tests/test_one_decision_owner.py::test_one_file_system_boundary``
keeps it that way), so recording its primitives records everything a
crash could leave.  :class:`RecordingDisk` logs each call as
``(op, path, offset, length)``, paths relative to the test's directory:

* ``create`` / ``open`` — a file opened for writing, truncating or not;
* ``write`` — bytes at an offset (every physical write, torn or hooked
  or not);
* ``fsync`` / ``fsync_dir`` — a file or directory actually synced (only
  under the ``fsync`` policy);
* ``rename`` (``"src -> dst"``), ``truncate`` (to ``offset``),
  ``unlink``.

Five operations are pinned exactly: a commit, a checkpoint, a recorded
checkpoint image, a sharded store's creation, and a follower's
bootstrap, catch-up and local seal.  Unlike ``test_wal_fsync.py``, which
sees fsync targets only, these pin the renames, truncates and unlinks
too — the input a crash-state enumerator consumes.
"""

from __future__ import annotations

import os

import pytest

from repro import WBox
from repro.config import TINY_CONFIG
from repro.persist import checkpoint_scheme, create_sharded_backends
from repro.repl import Follower, checkpoint_service
from repro.storage import BlockStore, FileBackend
from repro.storage.disk import Disk

from . import taped
from .test_replication import Primary

PRIMITIVES = ("open", "put", "sync", "sync_raw", "sync_dir", "rename", "truncate", "remove")


class RecordingDisk:
    """Wraps every :class:`Disk` primitive, on every instance in the
    process, to log what it does before doing it."""

    def __init__(self, monkeypatch: pytest.MonkeyPatch, root) -> None:
        self.root = str(root)
        self.ops: list[tuple] = []
        for name in PRIMITIVES:
            wrapped = self._wrap(getattr(self, "_" + name), getattr(Disk, name))
            monkeypatch.setattr(Disk, name, wrapped)

    @staticmethod
    def _wrap(log, real):
        def primitive(disk, *args):
            log(disk, *args)
            return real(disk, *args)

        return primitive

    def take(self, prefix: str = "") -> list[tuple]:
        """The ops logged since the last ``take`` on paths under ``prefix``."""
        ops, self.ops = self.ops, []
        return [op for op in ops if op[1].startswith(prefix)]

    def _rel(self, path: str) -> str:
        return os.path.relpath(path, self.root)

    def _open(self, disk, path, mode):
        self.ops.append(("create" if "w" in mode else "open", self._rel(path), None, None))

    def _put(self, disk, handle, data):
        self.ops.append(("write", self._rel(handle.name), handle.tell(), len(data)))

    def _sync(self, disk, handle):
        if disk.fsync:
            self.ops.append(("fsync", self._rel(handle.name), None, None))

    _sync_raw = _sync

    def _sync_dir(self, disk, dirpath):
        if disk.fsync:
            self.ops.append(("fsync_dir", self._rel(dirpath or "."), None, None))

    def _rename(self, disk, src, dst):
        self.ops.append(("rename", f"{self._rel(src)} -> {self._rel(dst)}", None, None))

    def _truncate(self, disk, handle, size):
        self.ops.append(("truncate", self._rel(handle.name), size, None))

    def _remove(self, disk, path):
        self.ops.append(("unlink", self._rel(path), None, None))


def make_scheme(tmp_path):
    backend = FileBackend(
        str(tmp_path / "t.pages"), fsync=True
    )
    scheme = WBox(TINY_CONFIG, store=BlockStore(TINY_CONFIG, backend=backend))
    checkpoint_scheme(scheme)
    lids = scheme.bulk_load(8, [i ^ 1 for i in range(8)])
    return scheme, backend, lids


def replaced(path, size, synced=True):
    """The trace of one atomic replace of ``path`` with ``size`` bytes."""
    tmp = path + ".tmp"
    directory = os.path.dirname(path) or "."
    return [
        ("create", tmp, None, None),
        ("write", tmp, 0, size),
        *([("fsync", tmp, None, None)] if synced else []),
        ("rename", f"{tmp} -> {path}", None, None),
        *([("fsync_dir", directory, None, None)] if synced else []),
    ]


def test_commit_is_log_writes_and_one_fsync(tmp_path, monkeypatch):
    scheme, backend, lids = make_scheme(tmp_path)
    disk = RecordingDisk(monkeypatch, tmp_path)
    taped.insert_before(scheme, lids[3])
    assert disk.take() == [
        ("open", "t.pages.wal", None, None),  # the bulk load's checkpoint sealed it
        ("write", "t.pages.wal", 0, 8),  # magic
        ("write", "t.pages.wal", 8, 11),  # OPS: the one-op tape
        ("write", "t.pages.wal", 19, 22),  # DELTA
        ("write", "t.pages.wal", 41, 9),  # COMMIT
        ("fsync", "t.pages.wal", None, None),
    ]
    backend.close()


def test_checkpoint_forces_then_seals_then_retains(tmp_path, monkeypatch):
    scheme, backend, lids = make_scheme(tmp_path)
    taped.insert_before(scheme, lids[3])
    disk = RecordingDisk(monkeypatch, tmp_path)
    assert backend.checkpoint() == 4
    assert disk.take() == [
        ("write", "t.pages", 1051, 10),  # the pages the tape dirtied, once each,
        ("write", "t.pages", 1061, 15),  # packed into the first free extents
        ("write", "t.pages", 1076, 10),
        ("write", "t.pages", 2023, 480),  # directory: the first gap that fits
        ("fsync", "t.pages", None, None),  # the barrier
        ("write", "t.pages", 8, 36),  # the older header slot: the commit point
        ("fsync", "t.pages", None, None),
        ("open", "t.pages.wal", None, None),  # the seal
        ("fsync", "t.pages.wal", None, None),
        ("rename", "t.pages.wal -> t.pages.seg-000004.wal", None, None),
        ("fsync_dir", ".", None, None),
        *replaced("t.pages.walseg.json", 79),  # retention: manifest first...
        ("unlink", "t.pages.seg-000004.wal", None, None),  # ...then the deletes
    ]
    backend.close()


def test_checkpoint_image_is_one_atomic_copy(tmp_path, monkeypatch):
    scheme, backend, lids = make_scheme(tmp_path)
    assert backend.checkpoint() == 4
    disk = RecordingDisk(monkeypatch, tmp_path)
    record = backend.record_checkpoint_image()
    assert record["bytes"] == os.path.getsize(tmp_path / "t.pages")
    assert disk.take() == [
        *replaced("t.pages.ckpt-000005", record["bytes"]),
        *replaced("t.pages.walseg.json", 172),
    ]
    backend.close()


def test_sharded_store_writes_its_manifest_before_any_shard(tmp_path, monkeypatch):
    disk = RecordingDisk(monkeypatch, tmp_path)
    backends = create_sharded_backends(str(tmp_path / "store"), 2, fsync=True)
    shard = [
        [
            ("create", page, None, None),
            ("write", page, 0, 8),  # magic
            ("write", page, 1024, 12),  # empty directory
            ("fsync", page, None, None),
            ("write", page, 8, 36),  # header slot 0
            ("fsync", page, None, None),
        ]
        for page in ("store/shard-000.pages", "store/shard-001.pages")
    ]
    assert disk.take() == replaced("store/SHARDS.json", 61) + shard[0] + shard[1]
    for backend in backends:
        backend.close()


def test_follower_bootstrap_catch_up_and_seal(tmp_path, monkeypatch):
    """A follower (no fsync) downloads the image as one atomic replace,
    mirrors shipped bytes into its live log through its ``WALWriter``
    (the segment's magic comes with them), and when its primary seals the
    segment, checkpoints its own pages and seals and retains like a
    primary — the log carries no page image."""
    primary = Primary(tmp_path)
    try:
        disk = RecordingDisk(monkeypatch, tmp_path)
        with Follower("127.0.0.1", primary.port, str(tmp_path / "f")).connect() as follower:
            page, wal = "f/shard-000.pages", "f/shard-000.pages.wal"
            image = os.path.getsize(tmp_path / page)
            assert disk.take("f/") == [
                *replaced("f/SHARDS.json", 61, synced=False),
                *replaced(page, image, synced=False),
                *replaced("f/shard-000.pages.walseg.json", 79, synced=False),
                ("open", page, None, None),
            ]
            primary.insert(primary.lids[3])
            follower.catch_up()
            assert disk.take("f/") == [
                ("open", wal, None, None),
                ("write", wal, 0, 50),  # magic + the primary's commit
            ]
            checkpoint_service(primary.service)
            follower.catch_up()
            assert disk.take("f/") == [
                ("write", page, 1051, 9),  # its own checkpoint: the replayed pages...
                ("write", page, 1060, 10),
                ("write", page, 1070, 27),
                ("write", page, 1097, 10),
                ("write", page, 1107, 9),
                ("write", page, image, 494),  # directory: no gap fits, the file grows
                ("write", page, 512, 36),  # header slot 1
                ("open", wal, None, None),  # local seal
                ("rename", f"{wal} -> f/shard-000.pages.seg-000005.wal", None, None),
                *replaced("f/shard-000.pages.walseg.json", 79, synced=False),
                ("unlink", "f/shard-000.pages.seg-000005.wal", None, None),
            ]
    finally:
        primary.close()
