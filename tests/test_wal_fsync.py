"""The WAL protocol's fsync discipline, pinned syscall-by-syscall.

A commit is one log append and one barrier; a checkpoint is the force
protocol, and every checkpoint ends by sealing the log into a segment.
Two durability bugs motivate pinning the latter:

* **Seal durability** — renaming the log away (a checkpoint's last step)
  must fsync the log *and* its parent directory.  A rename that only
  reaches the page cache can be lost to power failure, leaving a folded
  log next to the directory that includes it; recovery must then skip
  it by LSN instead of folding its deltas twice.
* **Barrier ordering** — pages + directory must be fsynced *before* the
  seal begins.  Sealing first opens a window where neither the live log
  nor the page file holds the committed transactions.

The tests record every ``os.fsync`` target (inode + file/dir bit) during
a single commit and a single checkpoint on an ``fsync=True`` backend and
assert the exact sequences; a directed fault-matrix entry then crashes
*at* the seal's hook (``wal.truncate``, its pre-segment name) and proves
recovery neither loses nor double-folds the still-present log.
"""

import os
import stat

import pytest

from repro import WBox
from repro.config import TINY_CONFIG
from repro.errors import CrashError
from repro.faults import TORN_WRITE, FaultInjector, FaultPlan, FaultSpec, run_chaos_trial
from repro.persist import (
    attach_scheme_to_backend,
    checkpoint_scheme,
    create_sharded_backends,
    open_file_scheme,
    scheme_metadata_header,
)
from repro.storage import BlockStore, FileBackend, default_page_bytes, scan_wal
from repro.storage import filebackend as filebackend_module
from repro.storage.shardlayout import MANIFEST_NAME
from repro.storage.walseg import manifest_path, segment_path


def make_scheme(tmp_path, fsync=True):
    path = str(tmp_path / "t.pages")
    backend = FileBackend(
        path,
        page_bytes=default_page_bytes(TINY_CONFIG.block_bytes),
        fsync=fsync,
    )
    scheme = WBox(TINY_CONFIG, store=BlockStore(TINY_CONFIG, backend=backend))
    attach_scheme_to_backend(scheme)
    return scheme, backend, path


def bulk(scheme, count):
    return scheme.bulk_load(count, [i ^ 1 for i in range(count)])


def lose_page_writes(path):
    """Zero every page the at-rest directory lists: the directory and
    header reached the disk, the page images under them did not."""
    directory = filebackend_module.read_directory(path)
    first = len(filebackend_module.MAGIC) + filebackend_module.HEADER_BYTES
    with open(path, "r+b") as handle:
        for block_id in directory["on_disk"]:
            handle.seek(first + (block_id - 1) * directory["page_bytes"])
            handle.write(bytes(directory["page_bytes"]))


class FsyncRecorder:
    """Every ``os.fsync`` target as ``(inode, is_directory)``, in call
    order — classifying by inode keeps the record meaningful across the
    seal, after which the next commit creates the log under a new
    inode."""

    def __init__(self, monkeypatch):
        self.targets = []
        real = os.fsync

        def record(fd):
            info = os.fstat(fd)
            self.targets.append((info.st_ino, stat.S_ISDIR(info.st_mode)))
            real(fd)

        monkeypatch.setattr(os, "fsync", record)

    def files(self):
        return [ino for ino, is_dir in self.targets if not is_dir]

    def dirs(self):
        return [ino for ino, is_dir in self.targets if is_dir]


class TestSealDurability:
    def test_seal_syncs_log_and_parent_dir(self, tmp_path, monkeypatch):
        """The sealed log file and its directory both reach disk before
        the seal returns — the regression for renames lost to the page
        cache."""
        scheme, backend, path = make_scheme(tmp_path)
        bulk(scheme, 8)
        wal_ino = os.stat(backend.wal_path).st_ino
        recorder = FsyncRecorder(monkeypatch)
        backend._wal.seal_to(segment_path(path, 9))
        assert os.stat(segment_path(path, 9)).st_ino == wal_ino
        assert recorder.targets == [(wal_ino, False), (os.stat(tmp_path).st_ino, True)]
        backend.close()

    def test_no_fsync_policy_means_no_fsync(self, tmp_path, monkeypatch):
        """The durability gate is the backend's one fsync policy: with
        ``fsync=False`` the seal must not sneak syncs in."""
        scheme, backend, path = make_scheme(tmp_path, fsync=False)
        bulk(scheme, 8)
        recorder = FsyncRecorder(monkeypatch)
        backend._wal.seal_to(segment_path(path, 9))
        assert recorder.targets == []
        backend.close()


class TestManifestDurability:
    @pytest.mark.parametrize("fsync", [True, False])
    def test_shard_manifest_follows_the_store_fsync_policy(
        self, tmp_path, monkeypatch, fsync
    ):
        """An fsync store syncs ``SHARDS.json`` and then its directory
        before it creates any shard file, so a power loss cannot leave
        page files beside an empty manifest that ``read_manifest``
        refuses; a store without fsync syncs nothing."""
        root = tmp_path / "store"
        recorder = FsyncRecorder(monkeypatch)
        backends = create_sharded_backends(str(root), 2, fsync=fsync)
        manifest = [(os.stat(root / MANIFEST_NAME).st_ino, False), (os.stat(root).st_ino, True)]
        assert recorder.targets[:2] == (manifest if fsync else [])
        for backend in backends:
            backend.close()


class TestCommitBarrierOrdering:
    def test_commit_is_one_log_fsync(self, tmp_path, monkeypatch):
        """A commit fsyncs the appended log and nothing else: no page
        file barrier, no seal — and writes nothing to the page file."""
        scheme, backend, path = make_scheme(tmp_path)
        lids = bulk(scheme, 8)
        wal_ino = os.stat(backend.wal_path).st_ino
        pages_before, written_before = open(path, "rb").read(), backend.page_writes
        recorder = FsyncRecorder(monkeypatch)
        scheme.insert_before(lids[3])
        assert recorder.targets == [(wal_ino, False)]
        assert open(path, "rb").read() == pages_before
        assert backend.page_writes == written_before
        backend.close()

    def test_single_commit_fsync_sequence(self, tmp_path, monkeypatch):
        """One checkpoint fsyncs, in order: the log (its absolute
        record), the page file (the barrier), the sealed log under its
        old inode, the directory (the rename), the manifest and the
        directory again (its rename).  The barrier strictly preceding the
        seal is the protocol's safety argument.  With no image recorded
        the sealed segment is then deleted: no live log and no segment
        remain."""
        scheme, backend, path = make_scheme(tmp_path)
        bulk(scheme, 8)
        wal_ino = os.stat(backend.wal_path).st_ino
        pages_ino = os.stat(path).st_ino
        recorder = FsyncRecorder(monkeypatch)
        assert backend.checkpoint() == 2
        dir_ino = os.stat(tmp_path).st_ino
        assert recorder.targets == [
            (wal_ino, False),  # absolute record + commit record
            (pages_ino, False),  # pages + directory barrier
            (wal_ino, False),  # the log, about to be sealed
            (dir_ino, True),  # its new directory entry
            (os.stat(manifest_path(path)).st_ino, False),  # the manifest
            (dir_ino, True),  # its directory entry
        ]
        assert not os.path.exists(backend.wal_path)
        assert not os.path.exists(segment_path(path, 2))
        backend.close()

    def test_retaining_checkpoint_leaves_the_log_to_be_sealed(
        self, tmp_path, monkeypatch
    ):
        """A checkpoint stopped at seal entry has run its barriers up to
        the page file and left the log standing under its old inode.  A
        log the page file already includes — this one, or a follower's
        mirror after its primary's ABSOLUTE record was written back — is
        sealed as it is: the same syncs as a checkpoint's tail, and no
        page file barrier."""
        scheme, backend, path = make_scheme(tmp_path)
        bulk(scheme, 8)
        wal_ino = os.stat(backend.wal_path).st_ino
        pages_ino = os.stat(path).st_ino
        recorder = FsyncRecorder(monkeypatch)
        backend.install_faults(
            FaultInjector(FaultPlan([FaultSpec(TORN_WRITE, "wal.truncate", at=1)]))
        )
        with pytest.raises(CrashError):
            backend.checkpoint()
        backend.install_faults(None)
        assert recorder.targets == [(wal_ino, False), (pages_ino, False)]
        assert os.stat(backend.wal_path).st_ino == wal_ino
        del recorder.targets[:]
        assert backend.seal_wal_segment() == 2
        assert pages_ino not in recorder.files()  # already checkpointed
        dir_ino = os.stat(tmp_path).st_ino
        assert recorder.targets == [
            (wal_ino, False),
            (dir_ino, True),
            (os.stat(manifest_path(path)).st_ino, False),
            (dir_ino, True),
        ]
        backend.close()

    def test_no_fsync_policy_covers_commit_and_checkpoint(self, tmp_path, monkeypatch):
        scheme, backend, path = make_scheme(tmp_path, fsync=False)
        lids = bulk(scheme, 8)
        recorder = FsyncRecorder(monkeypatch)
        scheme.insert_before(lids[0])
        backend.checkpoint()
        assert recorder.targets == []
        backend.close()


class TestTruncateCrashWindow:
    def test_crash_at_truncate_preserves_log_and_recovers(self, tmp_path):
        """A crash at seal entry leaves the full log *and* the full
        pages+directory; reopening must come up in the checkpointed
        state without folding any of the log's deltas a second time."""
        scheme, backend, path = make_scheme(tmp_path, fsync=False)
        lids = bulk(scheme, 24)
        for index in range(6):
            lids.append(scheme.insert_before(lids[index]))
        scheme.delete(lids.pop(2))  # a free-list push: folding it twice shows
        order = sorted(lids, key=scheme.lookup)
        header = scheme_metadata_header(scheme)
        backend.install_faults(
            FaultInjector(
                FaultPlan(
                    [FaultSpec(TORN_WRITE, "wal.truncate", at=1)],
                    name="truncate-crash",
                )
            )
        )
        with pytest.raises(CrashError):
            backend.checkpoint()
        # The checkpoint finished everything except the seal: the log
        # still holds every transaction the directory now includes.
        committed = scan_wal(path + ".wal").committed
        assert committed >= 8
        backend.close()

        reopened = open_file_scheme(path)
        report = reopened.store.backend.recovery_report
        assert report["checkpoint_lsn"] == report["lsn"] == backend.lsn
        assert report["replayed_transactions"] == 0  # all skipped by LSN
        assert scheme_metadata_header(reopened) == header
        assert sorted(lids, key=reopened.lookup) == order
        reopened.store.backend.close()

    def test_page_lost_under_a_landed_directory_is_served_from_the_log(
        self, tmp_path
    ):
        """Pages, directory and header share one fsync, so a power loss
        can keep the directory and lose a page write.  The log still
        stands then (the seal comes after the barrier) and its images
        must win over the page file, whatever the directory's LSN says."""
        scheme, backend, path = make_scheme(tmp_path, fsync=False)
        lids = bulk(scheme, 24)
        scheme.delete(lids.pop(2))
        labels = [scheme.lookup(lid) for lid in lids]
        backend.install_faults(
            FaultInjector(FaultPlan([FaultSpec(TORN_WRITE, "wal.truncate", at=1)]))
        )
        with pytest.raises(CrashError):
            backend.checkpoint()
        backend.close()
        lose_page_writes(path)

        reopened = open_file_scheme(path)
        assert reopened.store.backend.recovery_report["replayed_transactions"] == 0
        assert [reopened.lookup(lid) for lid in lids] == labels
        checkpoint_scheme(reopened)  # ...and the next checkpoint repairs the file
        reopened.store.backend.close()
        repaired = open_file_scheme(path)
        assert scan_wal(path + ".wal").committed == 0
        assert [repaired.lookup(lid) for lid in lids] == labels
        repaired.store.backend.close()

    def test_seal_does_not_rotate_away_images_the_page_file_may_lack(self, tmp_path):
        """The same lost page writes under the log the crash left
        standing.  A follower's seal of it after a reopen must write the
        images back first — a sealed segment repairs nothing — so it
        checkpoints, and that checkpoint's seal is the seal."""
        scheme, backend, path = make_scheme(tmp_path, fsync=False)
        lids = bulk(scheme, 24)
        labels = [scheme.lookup(lid) for lid in lids]
        backend.install_faults(
            FaultInjector(FaultPlan([FaultSpec(TORN_WRITE, "wal.truncate", at=1)]))
        )
        with pytest.raises(CrashError):
            backend.checkpoint()
        backend.close()
        lose_page_writes(path)
        reopened = open_file_scheme(path)
        assert reopened.store.backend.seal_wal_segment() == 2
        assert reopened.store.backend.page_writes > 0
        reopened.store.backend.close()
        assert scan_wal(path + ".wal").committed == 0
        sealed = open_file_scheme(path)
        assert [sealed.lookup(lid) for lid in lids] == labels
        sealed.store.backend.close()

    def test_refolding_an_included_log_is_what_the_lsn_prevents(
        self, tmp_path, monkeypatch
    ):
        """The same files, opened by a fold that ignores LSNs: the
        free-list pushes land twice.  (Fails the test above if the check
        in ``fold_transaction`` is ever dropped.)"""
        scheme, backend, path = make_scheme(tmp_path, fsync=False)
        lids = bulk(scheme, 24)
        scheme.delete(lids.pop(2))
        backend.install_faults(
            FaultInjector(FaultPlan([FaultSpec(TORN_WRITE, "wal.truncate", at=1)]))
        )
        with pytest.raises(CrashError):
            backend.checkpoint()
        backend.close()
        real = filebackend_module.fold_transaction

        def blind(state, txn):
            if not txn.absolute:
                state["lsn"] = txn.lsn - 1
            return real(state, txn)

        monkeypatch.setattr(filebackend_module, "fold_transaction", blind)
        refolded = FileBackend(path)
        assert sorted(refolded.owner.lidf["free"]) != sorted(
            scheme.lidf.persist_state()["free"]
        )
        refolded.close()

    def test_truncate_crash_matrix_entry(self, tmp_path):
        """The directed fault-matrix entry: crash anywhere a seeded
        window puts the seal, recover, agree with the twin oracle on
        every LID — the sweep-level regression for the stale-WAL window."""
        plan = FaultPlan(
            [FaultSpec(TORN_WRITE, "wal.truncate", at=None, window=(1, 20))],
            name="wal-truncate-crash",
        )
        for seed in (0, 1, 2):
            trial = run_chaos_trial(
                "wbox",
                "wal-truncate-crash",
                plan,
                seed,
                str(tmp_path),
                max_ops=200,
            )
            assert trial.crashed, f"seed {seed}: seal fault never fired"
            assert trial.mismatches == 0 and not trial.error, trial
            assert trial.checked_lids > 0
            assert any("wal.truncate" in fired for fired in trial.faults_fired)
