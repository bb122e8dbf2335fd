"""One log lifecycle: every checkpoint seals, one retention rule deletes.

Every :class:`~repro.storage.FileBackend` checkpoint seals its live log
into a numbered segment; :func:`~repro.storage.walseg.apply_retention`
then keeps the two newest checkpoint images and every segment from the
older one's id on, and deletes the rest.  These tests pin what that
leaves on disk — nothing but the page file and its manifest for a store
that never recorded an image; exactly the horizon for a replicating
primary — that disk stays bounded over a long run with a follower
attached, that a follower left below the horizon re-bootstraps from the
newest image, and that point-in-time restore is byte-reproducible inside
the horizon and refused below it.
"""

from __future__ import annotations

import errno
import os
import random

import pytest

from repro import TINY_CONFIG, BatchOp, WBox
from repro.errors import ReplicationError
from repro.persist import (
    PersistError,
    checkpoint_scheme,
    full_checkpoint,
    open_file_scheme,
    restore_to_checkpoint,
)
from repro.repl import Follower, checkpoint_service, rotate_service_wal
from repro.storage import BlockStore, FileBackend
from repro.storage import filebackend as filebackend_module
from repro.storage.walseg import (
    checkpoint_image_path,
    manifest_path,
    read_wal_manifest,
    segment_path,
)

from . import taped
from .test_replication import Primary, assert_twin


def make_scheme(path):
    backend = FileBackend(path)
    scheme = WBox(TINY_CONFIG, store=BlockStore(TINY_CONFIG, backend=backend))
    checkpoint_scheme(scheme)
    return scheme, backend


def history_files(directory):
    return sorted(name for name in os.listdir(directory) if ".seg-" in name or ".ckpt-" in name)


def horizon_files(path):
    """The files a store at ``path`` keeps: page file, manifest, the two
    newest images and every segment from the older one's id on."""
    manifest = read_wal_manifest(path)
    images = manifest["checkpoints"]
    assert len(images) <= 2
    horizon = images[0]["segment"] if images else manifest["next_segment"]
    assert manifest["segments"] == list(range(horizon, manifest["next_segment"]))
    names = {path, manifest_path(path)}
    names |= {checkpoint_image_path(path, record["segment"]) for record in images}
    names |= {segment_path(path, seg) for seg in manifest["segments"]}
    return {os.path.basename(name) for name in names}


def churn(primary, rng, commits):
    """``commits`` single-op commits, alternating an insert and a delete
    of a random live label, so the structure's size stays level."""
    for index in range(commits):
        if index % 2 == 0:
            primary.insert(rng.choice(primary.lids))
        else:
            lid = primary.lids.pop(rng.randrange(len(primary.lids)))
            primary.service.submit_ops([BatchOp("delete", (lid,))]).wait(10)


def test_store_without_image_keeps_no_history(tmp_path, monkeypatch):
    """(a) Explicit and automatic checkpoints alike seal; with no image
    recorded every sealed segment is deleted at once, so on disk the
    store is what truncating the log left: page file, manifest, live
    log."""
    monkeypatch.setattr(filebackend_module, "CHECKPOINT_TAPE_BYTES", 24)
    path = str(tmp_path / "plain.pages")
    scheme, backend = make_scheme(path)
    lids = scheme.bulk_load(32, [i ^ 1 for i in range(32)])
    rng = random.Random(5)
    explicit = 0
    for index in range(240):
        op = BatchOp("insert_before", (rng.choice(lids),))
        lids.append(scheme.execute_batch([op]).results[0])
        if index % 20 == 19:
            checkpoint_scheme(scheme)
            explicit += 1
        assert history_files(tmp_path) == []
    sealed = backend.wal_manifest["next_segment"] - 1
    assert sealed >= 40 and sealed - explicit >= 20  # automatic seals too
    assert backend.wal_manifest["segments"] == []
    labels = {lid: scheme.lookup(lid) for lid in lids}
    backend.close()

    reopened = open_file_scheme(path)
    assert {lid: reopened.lookup(lid) for lid in lids} == labels
    reopened.store.backend.close()
    assert set(os.listdir(tmp_path)) <= {"plain.pages", "plain.pages.wal",
                                         "plain.pages.walseg.json"}


def test_primary_keeps_exactly_the_horizon(tmp_path, monkeypatch):
    """(b) After every full checkpoint a replicating primary holds its
    page file, the manifest, the two newest images and the segments from
    the older one on — and once it commits again, the live log."""
    monkeypatch.setattr(filebackend_module, "CHECKPOINT_TAPE_BYTES", 100)
    root = tmp_path / "primary"
    root.mkdir()
    primary = Primary(root, base=48)
    path = str(root / "primary.pages")
    rng = random.Random(11)
    try:
        for _ in range(6):
            churn(primary, rng, 30)
            rotate_service_wal(primary.service)
            churn(primary, rng, 30)
            checkpoint_service(primary.service)
            assert set(os.listdir(root)) == horizon_files(path)
            assert len(read_wal_manifest(path)["checkpoints"]) == 2
            churn(primary, rng, 2)
            assert set(os.listdir(root)) == horizon_files(path) | {"primary.pages.wal"}
    finally:
        primary.close()


def test_disk_is_bounded_with_a_follower_attached(tmp_path):
    """(c) 3,000 commits, a full checkpoint every 300, one follower
    attached throughout: what the primary's directory holds over the
    second half never exceeds 1.2x its peak over the first half, and the
    follower never errs and ends agreeing with the primary."""
    root = tmp_path / "primary"
    root.mkdir()
    primary = Primary(root, base=64)
    rng = random.Random(3)
    sizes = []
    try:
        with Follower("127.0.0.1", primary.port, str(tmp_path / "f")).connect() as f:
            for index in range(30):
                churn(primary, rng, 100)
                f.catch_up()
                if index % 3 == 2:
                    checkpoint_service(primary.service)
                sizes.append(sum(entry.stat().st_size for entry in os.scandir(root)))
            f.catch_up()
            assert f.last_error is None
            assert f.shards[0].txns_applied >= 3000
            assert_twin(primary, f)
    finally:
        primary.close()
    half = len(sizes) // 2
    assert max(sizes[half:]) <= 1.2 * max(sizes[:half]), sizes


def test_follower_below_the_horizon_rebootstraps(tmp_path):
    """(d) A follower that is down through three full checkpoints finds
    its cursor's segment deleted: a running one stops with a typed
    error, a restarted one discards its shard's files and bootstraps
    from the newest image."""
    primary = Primary(tmp_path, base=48)
    root = str(tmp_path / "f")
    rng = random.Random(7)
    try:
        with Follower("127.0.0.1", primary.port, root).connect() as f:
            f.catch_up()
            stale = f.shards[0].segment
            for _ in range(3):
                churn(primary, rng, 10)
                checkpoint_service(primary.service)
            with pytest.raises(ReplicationError, match="re-bootstrap"):
                f.catch_up()
        newest = primary.service.shards[0].scheme.store.backend.wal_manifest["checkpoints"][-1]
        assert newest["segment"] > stale
        churn(primary, rng, 10)
        with Follower("127.0.0.1", primary.port, root).connect() as f:
            assert f.shards[0].segment == newest["segment"]
            assert f.shards[0].backend.recovery_report["replayed_transactions"] == 0
            f.catch_up()
            assert_twin(primary, f)
    finally:
        primary.close()


def test_pitr_inside_the_horizon_only(tmp_path):
    """(e) Every restore point inside the horizon reproduces the state
    sealed there, byte for byte on every run; below it the images are
    gone and restore says so."""
    path = str(tmp_path / "t.pages")
    scheme, backend = make_scheme(path)
    lids = scheme.bulk_load(24, [i ^ 1 for i in range(24)])
    rng = random.Random(2)
    at_seal = {}  # segment id -> labels once it was sealed
    for _ in range(4):
        for _ in range(2):
            lids.append(taped.insert_before(scheme, rng.choice(lids)))
            sealed = backend.checkpoint()
            at_seal[sealed] = {lid: scheme.lookup(lid) for lid in lids}
        lids.append(taped.insert_before(scheme, rng.choice(lids)))
        sealed = full_checkpoint(scheme)["segment"] - 1
        at_seal[sealed] = {lid: scheme.lookup(lid) for lid in lids}
    manifest = backend.wal_manifest
    backend.close()
    oldest = manifest["checkpoints"][0]["segment"]
    for upto in range(oldest - 1, manifest["next_segment"]):
        targets = [str(tmp_path / f"r{upto}-{run}.pages") for run in (0, 1)]
        for target in targets:
            restore_to_checkpoint(path, target, upto_segment=upto)
        with open(targets[0], "rb") as first, open(targets[1], "rb") as second:
            assert first.read() == second.read()
        restored = open_file_scheme(targets[0])
        assert {lid: restored.lookup(lid) for lid in at_seal[upto]} == at_seal[upto]
        restored.store.backend.close()
    for upto in range(1, oldest - 1):
        with pytest.raises(PersistError, match="no checkpoint image"):
            restore_to_checkpoint(path, str(tmp_path / "gone.pages"), upto_segment=upto)


def test_failed_image_copy_leaves_no_temp_file(tmp_path, monkeypatch):
    """A checkpoint image whose copy fails partway (here the disk is
    full when the copy is synced) is one atomic replace: the temp file
    is removed — retention would never match its name — the manifest is
    as it was, and the error propagates as the ``OSError`` it is."""
    path = str(tmp_path / "t.pages")
    backend = FileBackend(path, fsync=True)
    scheme = WBox(TINY_CONFIG, store=BlockStore(TINY_CONFIG, backend=backend))
    checkpoint_scheme(scheme)
    scheme.bulk_load(24, [i ^ 1 for i in range(24)])
    backend.checkpoint()
    listing = sorted(os.listdir(tmp_path))
    with open(manifest_path(path), "rb") as handle:
        manifest = handle.read()

    def disk_full(fd):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(os, "fsync", disk_full)
    with pytest.raises(OSError) as caught:
        backend.record_checkpoint_image()
    monkeypatch.undo()
    assert caught.value.errno == errno.ENOSPC
    assert sorted(os.listdir(tmp_path)) == listing
    with open(manifest_path(path), "rb") as handle:
        assert handle.read() == manifest
    assert backend.wal_manifest["checkpoints"] == []
    backend.close()
