"""WAL segmentation: rotation, manifests, retained tails, and PITR.

Every checkpoint seals the live log into a numbered segment; together
with recorded checkpoint images the segment chain supports point-in-time
recovery and replication shipping.  Retention keeps segments only from
the older of the two newest images on, so every store here records an
image first.  These tests pin the manifest discipline (monotonic ids,
survives reopen), crash recovery (trim the torn tail, keep the committed
prefix *in place*), and the PITR contract: restore image + replay sealed
segments == the exact state at the chosen rotation boundary,
reproducibly.  What retention deletes is pinned by
``tests/test_wal_retention.py``.
"""

import os

import pytest

from repro import BatchOp, WBox
from repro.config import TINY_CONFIG
from repro.errors import RecoveryError
from repro.persist import (
    PersistError,
    checkpoint_scheme,
    full_checkpoint,
    open_file_scheme,
    restore_to_checkpoint,
)
from repro.storage import BlockStore, FileBackend, scan_wal
from repro.storage.walseg import (
    checkpoint_image_path,
    read_wal_manifest,
    segment_path,
)
from repro.storage.wal import _HEADER, REC_OPS


def make_scheme(tmp_path, name="t.pages", fsync=False, image=False):
    """A scheme on a fresh page file; creating it (its root commits
    without a tape: a checkpoint) and attaching seal segments 1 and 2,
    which retention deletes.  ``image``: then record the image segments 3
    and later are kept for.  (A bulk load commits without a tape too, so
    it seals a segment of its own.)"""
    path = str(tmp_path / name)
    backend = FileBackend(
        path,
        fsync=fsync,
    )
    scheme = WBox(TINY_CONFIG, store=BlockStore(TINY_CONFIG, backend=backend))
    checkpoint_scheme(scheme)
    if image:
        assert backend.record_checkpoint_image()["segment"] == 3
    return scheme, backend, path


def bulk(scheme, count):
    return scheme.bulk_load(count, [i ^ 1 for i in range(count)])


def edit(scheme, lids, rounds):
    """``rounds`` inserts, one logged tape each."""
    for index in range(rounds):
        op = BatchOp("insert_before", (lids[(5 * index) % len(lids)],))
        lids.append(scheme.execute_batch([op]).results[0])
    return lids


def snapshot(scheme, lids):
    return {lid: scheme.lookup(lid) for lid in lids}


class TestRotation:
    def test_seal_produces_numbered_segment(self, tmp_path):
        scheme, backend, path = make_scheme(tmp_path, image=True)
        edit(scheme, bulk(scheme, 24), 10)
        sealed = backend.checkpoint()
        assert sealed == 4
        manifest = read_wal_manifest(path)
        assert manifest["segments"] == [3, 4]
        assert manifest["next_segment"] == 5
        segment = segment_path(path, 4)
        assert os.path.exists(segment)
        scan = scan_wal(segment)
        assert scan.committed and not scan.torn_tail
        backend.close()

    def test_seal_of_empty_log_keeps_the_numbering(self, tmp_path):
        scheme, backend, path = make_scheme(tmp_path, image=True)
        bulk(scheme, 24)
        assert read_wal_manifest(path)["segments"] == [3]
        # The live log is gone right after sealing, and a checkpoint with
        # no intervening commit seals it empty: a follower mirroring that
        # segment seals its empty log too, so the numberings stay aligned.
        assert backend.seal_wal_segment() == 4
        assert read_wal_manifest(path)["segments"] == [3, 4]
        assert scan_wal(segment_path(path, 4)).committed == 0
        assert read_wal_manifest(path)["next_segment"] == 5
        backend.close()

    def test_segment_ids_monotonic_across_reopen(self, tmp_path):
        scheme, backend, path = make_scheme(tmp_path, image=True)
        lids = bulk(scheme, 24)
        edit(scheme, lids, 6)
        assert backend.checkpoint() == 4
        edit(scheme, lids, 6)
        assert backend.checkpoint() == 5
        backend.close()

        reopened = open_file_scheme(path)
        edit(reopened, list(lids), 6)
        assert reopened.store.backend.checkpoint() == 6
        manifest = read_wal_manifest(path)
        assert manifest["segments"] == [3, 4, 5, 6]
        assert manifest["next_segment"] == 7
        reopened.store.backend.close()

    def test_retain_mode_recovery_trims_tail_in_place(self, tmp_path):
        """A torn in-flight append dies at reopen, but the committed live
        tail is *trimmed*, not emptied — it is segment history the next
        checkpoint will seal."""
        scheme, backend, path = make_scheme(tmp_path)
        lids = edit(scheme, bulk(scheme, 24), 8)
        order = sorted(lids, key=scheme.lookup)
        backend.close()

        committed = scan_wal(path + ".wal").committed_bytes
        body = bytes(12)
        torn = (_HEADER.pack(REC_OPS, len(body) + 40) + body)[:9]
        with open(path + ".wal", "ab") as handle:
            handle.write(torn)

        reopened = open_file_scheme(path)
        report = reopened.store.backend.recovery_report
        assert report["discarded_tail_bytes"] == len(torn)
        assert report["replayed_transactions"] > 0
        assert os.path.getsize(path + ".wal") == committed
        assert sorted(lids, key=reopened.lookup) == order
        reopened.store.backend.close()


class TestPITR:
    def test_restore_reproduces_sealed_state_exactly(self, tmp_path):
        scheme, backend, path = make_scheme(tmp_path)
        lids = edit(scheme, bulk(scheme, 24), 8)
        record = full_checkpoint(scheme, extra={"note": "base"})
        assert record["note"] == "base"
        assert os.path.getsize(checkpoint_image_path(path, record["segment"])) == (
            record["bytes"]
        )

        edit(scheme, lids, 9)
        checkpoint_scheme(scheme)
        sealed_labels = snapshot(scheme, lids)
        sealed_count = scheme.label_count()
        # Commits past the last rotation stay in the live tail and must
        # NOT appear in the restored state.
        edit(scheme, lids, 7)

        target = str(tmp_path / "restored.pages")
        used = restore_to_checkpoint(path, target)
        assert used["segment"] == record["segment"]
        restored = open_file_scheme(target)
        assert restored.label_count() == sealed_count
        assert snapshot(restored, list(sealed_labels)) == sealed_labels
        restored.store.backend.close()
        backend.close()

    def test_restore_is_reproducible_byte_for_byte(self, tmp_path):
        scheme, backend, path = make_scheme(tmp_path)
        lids = edit(scheme, bulk(scheme, 24), 8)
        full_checkpoint(scheme)
        edit(scheme, lids, 9)
        checkpoint_scheme(scheme)
        backend.close()

        targets = [str(tmp_path / f"restored-{i}.pages") for i in (0, 1)]
        for target in targets:
            restore_to_checkpoint(path, target)
        with open(targets[0], "rb") as a, open(targets[1], "rb") as b:
            assert a.read() == b.read()

    def test_restore_upto_segment_prefix(self, tmp_path):
        scheme, backend, path = make_scheme(tmp_path)
        lids = edit(scheme, bulk(scheme, 24), 6)
        full_checkpoint(scheme)

        edit(scheme, lids, 5)
        first = backend.checkpoint()
        at_first = snapshot(scheme, lids)
        count_at_first = scheme.label_count()

        edit(scheme, lids, 5)
        second = backend.checkpoint()
        assert second == first + 1
        backend.close()

        target = str(tmp_path / "prefix.pages")
        restore_to_checkpoint(path, target, upto_segment=first)
        restored = open_file_scheme(target)
        assert restored.label_count() == count_at_first
        assert snapshot(restored, list(at_first)) == at_first
        restored.store.backend.close()

    def test_restore_across_a_tapeless_commit_raises_typed(self, tmp_path):
        """A direct ``insert_before`` on a file store commits without a
        tape, which checkpoints: the LSN it consumed is in no log record,
        so a restore cannot replay past it and says so, naming both LSNs.
        The source store itself is whole."""
        scheme, backend, path = make_scheme(tmp_path)
        lids = bulk(scheme, 24)
        full_checkpoint(scheme)
        edit(scheme, lids, 1)
        state = backend.lsn
        lids.append(scheme.insert_before(lids[3]))  # tapeless: consumes state + 1
        edit(scheme, lids, 1)
        checkpoint_scheme(scheme)
        labels = snapshot(scheme, lids)
        backend.close()

        with pytest.raises(
            RecoveryError,
            match=f"log transaction {state + 2} cannot follow state {state}$",
        ):
            restore_to_checkpoint(path, str(tmp_path / "restored.pages"))
        reopened = open_file_scheme(path)
        assert reopened.label_count() == len(lids)
        assert snapshot(reopened, lids) == labels
        reopened.store.backend.close()

    def test_restore_without_covering_checkpoint_raises(self, tmp_path):
        scheme, backend, path = make_scheme(tmp_path)
        edit(scheme, bulk(scheme, 24), 4)
        checkpoint_scheme(scheme)  # sealed segment, but no image yet
        backend.close()
        with pytest.raises(PersistError, match="no checkpoint image"):
            restore_to_checkpoint(path, str(tmp_path / "nope.pages"))

    def test_full_checkpoint_image_covers_prior_segments(self, tmp_path):
        """The recorded image reflects everything through the segment it
        seals: restoring it with zero replay already answers correctly."""
        scheme, backend, path = make_scheme(tmp_path)
        lids = edit(scheme, bulk(scheme, 24), 10)
        labels = snapshot(scheme, lids)
        record = full_checkpoint(scheme)
        backend.close()

        target = str(tmp_path / "image-only.pages")
        used = restore_to_checkpoint(path, target, upto_segment=record["segment"] - 1)
        assert used == record
        restored = open_file_scheme(target)
        assert snapshot(restored, list(labels)) == labels
        restored.store.backend.close()
