"""The layered storage stack's file side: page files, the WAL protocol,
crash injection + recovery, and cross-backend equivalence.

The crash tests install :class:`repro.faults.FaultPlan.crash_after_writes`
plans (the exact semantics of the retired ``crash_after_n_writes``
budget): ``budget`` physical writes are granted and the final one is torn
in half — sweeping the budget walks the crash point through every window
of a commit followed by a checkpoint (mid-WAL-record, mid-page,
mid-directory, at the header slot, before the seal).
After every simulated crash, reopening must yield exactly the last
committed state: every LID looks up its pre-crash committed label.
"""

import os

import pytest

from repro import BBox, BatchExecutor, BatchOp, NaiveScheme, OrdPath, WBox, WBoxO
from repro.config import TINY_CONFIG
from repro.errors import CrashError, PersistError, RecoveryError, TransientIOError, WALError
from repro.faults import TORN_WRITE, FaultInjector, FaultPlan, FaultSpec
from repro.persist import checkpoint_scheme, open_file_scheme
from repro.storage import (
    BlockStore,
    FileBackend,
    MemoryBackend,
    read_directory,
    scan_wal,
)
from repro.storage import filebackend as filebackend_module
from repro.storage.codec import uvarint_bytes
from repro.storage.disk import Disk
from repro.storage.wal import REC_DELTA, REC_OPS, WALWriter

from . import taped


def delta(lsn, payload=b""):
    """A DELTA record body as the log sees it: uvarint LSN + opaque rest."""
    return uvarint_bytes(lsn) + payload


def make_backend(tmp_path, name="t.pages", **kwargs):
    return FileBackend(str(tmp_path / name), **kwargs)


def arm_crash_after(backend, budget):
    """Grant ``budget`` physical writes, tearing the final one in half —
    the legacy ``crash_after_n_writes`` semantics as a FaultPlan."""
    backend.install_faults(FaultInjector(FaultPlan.crash_after_writes(budget)))


def make_file_scheme(tmp_path, factory, name="s.pages", config=TINY_CONFIG, fsync=False):
    backend = FileBackend(str(tmp_path / name), fsync=fsync)
    scheme = factory(config, store=BlockStore(config, backend=backend))
    checkpoint_scheme(scheme)
    return scheme, backend


def bulk(scheme, count):
    """Bulk load ``count`` labels as sibling start/end pairs (W-BOX-O
    requires the tag pairing; the others accept and ignore it)."""
    assert count % 2 == 0
    return scheme.bulk_load(count, [i ^ 1 for i in range(count)])


SCHEME_FACTORIES = {
    "wbox": lambda config, store: WBox(config, store=store),
    "wboxo": lambda config, store: WBoxO(config, store=store),
    "bbox": lambda config, store: BBox(config, store=store),
    "bbox-o": lambda config, store: BBox(config, store=store, ordinal=True),
    "naive-8": lambda config, store: NaiveScheme(8, config, store=store),
    "ordpath": lambda config, store: OrdPath(config, store=store),
}


class TestAllocationSharing:
    """Both backends share the historical allocation bookkeeping."""

    @pytest.mark.parametrize("kind", ["memory", "file"])
    def test_lifo_id_recycling(self, tmp_path, kind):
        backend = MemoryBackend() if kind == "memory" else make_backend(tmp_path)
        ids = [backend.allocate([i]) for i in range(4)]
        assert ids == [1, 2, 3, 4]
        backend.free(2)
        backend.free(4)
        assert backend.free_ids == [2, 4]
        assert backend.allocate(["new"]) == 4  # LIFO: last freed first
        assert backend.allocate(["new"]) == 2
        assert backend.allocate(["new"]) == 5
        backend.close()

    @pytest.mark.parametrize("kind", ["memory", "file"])
    def test_missing_block_raises_keyerror(self, tmp_path, kind):
        backend = MemoryBackend() if kind == "memory" else make_backend(tmp_path)
        with pytest.raises(KeyError):
            backend.read(7)
        with pytest.raises(KeyError):
            backend.write(7, [1])
        with pytest.raises(KeyError):
            backend.free(7)
        backend.close()


class TestFileBackendPages:
    def test_cold_read_decodes_from_page(self, tmp_path):
        backend = make_backend(tmp_path)
        block_id = backend.allocate([1, 2, (3, 4)])
        backend.commit([block_id])
        backend.drop_clean_objects()
        assert block_id not in backend._objects
        assert backend.read(block_id) == [1, 2, (3, 4)]
        assert backend.page_reads == 1
        backend.close()

    def test_reads_after_commit_see_new_blocks(self, tmp_path):
        """Cold reads go around the handle's write buffer (positioned
        reads on the descriptor), so a block committed after the file
        grew must already be flushed when the first cold read arrives."""
        scheme, backend = make_file_scheme(tmp_path, SCHEME_FACTORIES["bbox"])
        lids = bulk(scheme, 8)
        checkpoint_scheme(scheme)
        backend.drop_clean_objects()
        scheme.lookup(lids[0])
        size_before = os.path.getsize(backend.path)

        # Grow the tree well past that size, then cold-read everything.
        for i in range(40):
            lids.append(scheme.insert_before(lids[i % len(lids)]))
        checkpoint_scheme(scheme)
        assert os.path.getsize(backend.path) > size_before
        backend.drop_clean_objects()
        labels = [scheme.lookup(lid) for lid in lids]
        assert len(set(labels)) == len(labels)
        scheme.check_invariants()
        backend.close()

    def test_close_is_idempotent(self, tmp_path):
        scheme, backend = make_file_scheme(tmp_path, SCHEME_FACTORIES["bbox"])
        bulk(scheme, 6)
        checkpoint_scheme(scheme)
        backend.close()
        backend.close()

    def test_uncommitted_blocks_survive_drop(self, tmp_path):
        backend = make_backend(tmp_path)
        block_id = backend.allocate([9])
        backend.drop_clean_objects()  # never committed: must stay resident
        assert backend.read(block_id) == [9]
        backend.close()

    def test_reopen_preserves_alloc_state_in_lifo_order(self, tmp_path):
        backend = make_backend(tmp_path)
        for i in range(5):
            backend.allocate([i])
        backend.free(3)
        backend.free(1)
        backend.commit(backend.block_ids())
        backend.close()
        reopened = make_backend(tmp_path)
        assert reopened.next_id == 6
        assert reopened.free_ids == [3, 1]
        assert reopened.allocate(["x"]) == 1
        assert reopened.read(2) == [1]
        reopened.close()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.pages"
        path.write_bytes(b"NOTAPAGE" + b"\0" * 64)
        with pytest.raises(PersistError, match="bad magic"):
            FileBackend(str(path))

    def test_the_directory_is_one_more_extent(self, tmp_path):
        """The directory goes into a free extent like a page image,
        whatever its size, and the header slot a checkpoint flips points
        at it; reopening and read-only inspection follow the header."""
        backend = make_backend(tmp_path)
        ids = [backend.allocate([i]) for i in range(30)]
        backend.owner.meta = {"payload": "x" * 20_000}
        backend.commit(ids)  # no tape: the commit is a checkpoint
        assert read_directory(backend.path)["table"].ids() == ids
        backend.checkpoint()
        more = [backend.allocate([i]) for i in range(30, 40)]
        backend.commit(more)
        backend.checkpoint()
        state = read_directory(backend.path)
        assert state["owner"].meta == {"payload": "x" * 20_000}
        assert state["table"].ids() == ids + more and state["lsn"] == backend.lsn
        # Two directories stand at most (one per header slot), and a
        # growing one leaves at most one more behind as a gap.
        live = sum(state["table"].lengths)
        assert os.path.getsize(backend.path) <= filebackend_module.DATA_START + live + 3 * (
            state["extent"][1] + 64
        )
        backend.close()
        reopened = make_backend(tmp_path)
        assert reopened.owner.meta == {"payload": "x" * 20_000}
        assert reopened.read(ids[7]) == [7] and reopened.read(more[3]) == [33]
        reopened.close()

    def test_version_1_page_file_is_refused_by_name(self, tmp_path):
        path = tmp_path / "old.pages"
        path.write_bytes(b"BOXPAGE1" + b"\0" * 8192)
        with pytest.raises(PersistError, match="format-version-1 page file"):
            FileBackend(str(path))
        with pytest.raises(PersistError, match="reads version 4"):
            read_directory(str(path))


class TestWALScan:
    def test_missing_or_empty_is_clean(self, tmp_path):
        assert scan_wal(str(tmp_path / "absent.wal")).committed == 0
        empty = tmp_path / "empty.wal"
        empty.write_bytes(b"")
        scan = scan_wal(str(empty))
        assert scan.committed == 0 and not scan.torn_tail

    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "log.wal")
        writer = WALWriter(path, Disk(fsync=False))
        writer.append_transaction({REC_OPS: b"abc", REC_DELTA: delta(1, b"k1")})
        writer.append_transaction({REC_OPS: b"xyz", REC_DELTA: delta(2, b"k2")})
        writer.close()
        scan = scan_wal(path)
        assert scan.committed == 2 and not scan.torn_tail
        first, second = scan.transactions
        assert (first.lsn, first.body, first.ops) == (1, delta(1, b"k1"), b"abc")
        assert (second.lsn, second.body, second.ops) == (2, delta(2, b"k2"), b"xyz")

    def test_torn_tail_discarded_committed_prefix_kept(self, tmp_path):
        path = str(tmp_path / "log.wal")
        writer = WALWriter(path, Disk(fsync=False))
        writer.append_transaction({REC_OPS: b"abc", REC_DELTA: delta(1)})
        writer.append_transaction({REC_OPS: b"def", REC_DELTA: delta(2)})
        writer.close()
        intact = os.path.getsize(path)
        first_end = len(scan_wal(path).transactions)  # sanity: both committed
        assert first_end == 2
        # Cut the log anywhere inside the second transaction: the first
        # must survive, the tail must be reported torn.
        with open(path, "rb") as handle:
            data = handle.read()
        for cut in range(intact - 1, intact - 20, -7):
            with open(path, "wb") as handle:
                handle.write(data[:cut])
            scan = scan_wal(path)
            assert scan.committed == 1
            assert scan.torn_tail and scan.tail_bytes > 0

    def test_corrupt_commit_crc_treated_as_torn(self, tmp_path):
        path = str(tmp_path / "log.wal")
        writer = WALWriter(path, Disk(fsync=False))
        writer.append_transaction({REC_OPS: b"abc", REC_DELTA: delta(1)})
        writer.close()
        with open(path, "r+b") as handle:
            handle.seek(-1, os.SEEK_END)
            last = handle.read(1)
            handle.seek(-1, os.SEEK_END)
            handle.write(bytes([last[0] ^ 0xFF]))
        scan = scan_wal(path)
        assert scan.committed == 0 and scan.torn_tail

    def test_bad_magic_raises(self, tmp_path):
        path = tmp_path / "bogus.wal"
        path.write_bytes(b"NOTAWAL!" + b"\0" * 16)
        with pytest.raises(WALError, match="bad magic"):
            scan_wal(str(path))

    def test_version_1_log_is_refused_by_name(self, tmp_path):
        path = tmp_path / "old.wal"
        path.write_bytes(b"BOXWAL01" + b"\0" * 16)
        with pytest.raises(WALError, match="format-version-1 write-ahead log"):
            scan_wal(str(path))


class TestRecoveryWindows:
    """Walk the crash point through a commit and the checkpoint after it."""

    def _committed_file(self, tmp_path):
        backend = make_backend(tmp_path)
        ids = [backend.allocate([i, i]) for i in range(6)]
        backend.commit(ids)
        return backend, ids

    def test_crash_sweep_always_recovers_committed_state(self, tmp_path):
        baseline, ids = self._committed_file(tmp_path)
        committed = {i: list(baseline.read(i)) for i in baseline.block_ids()}
        baseline.checkpoint()  # the page file alone is the committed state
        baseline.close()
        with open(baseline.path, "rb") as handle:
            image = handle.read()
        for budget in range(1, 40):
            path = tmp_path / f"sweep{budget}.pages"
            path.write_bytes(image)
            backend = FileBackend(str(path))
            arm_crash_after(backend, budget)
            crashed = False
            try:
                for i in ids:
                    backend.write(i, [i, i, budget])
                backend.commit(ids)
                backend.checkpoint()
            except CrashError:
                crashed = True
            backend.close()
            reopened = FileBackend(str(path))
            after = {i: list(reopened.read(i)) for i in reopened.block_ids()}
            if crashed and reopened.lsn == baseline.lsn:
                # Crash before the commit record hit the log: old state.
                assert after == committed
            else:
                # Commit record made it (or no crash): new state, even if
                # the checkpoint tore pages or the directory.
                assert reopened.lsn == baseline.lsn + 1
                assert after == {i: [i, i, budget] for i in ids}
            # Opening folds in memory; a checkpoint puts it in the file,
            # after which the log is empty and a reopen folds nothing.
            reopened.checkpoint()
            assert scan_wal(reopened.wal_path).committed == 0
            reopened.close()
            again = FileBackend(str(path))
            assert again.recovery_report["replayed_transactions"] == 0
            assert {i: list(again.read(i)) for i in again.block_ids()} == after
            again.close()
            if not crashed:
                break  # budget exceeds commit + checkpoint; later sweeps identical
        assert not crashed and budget > 10, "the sweep must cover the whole checkpoint"

    def test_committed_but_unapplied_is_replayed(self, tmp_path):
        """Tapes committed to the log, then a checkpoint torn at its first
        page write: the page file never took them (its header slots are as
        they were), and reopening re-runs them from the log."""
        scheme, backend = make_file_scheme(tmp_path, WBox)
        lids = bulk(scheme, 24)
        lids += [taped.insert_before(scheme, lids[index]) for index in (2, 2, 7)]
        labels = [scheme.lookup(lid) for lid in lids]
        checkpoint_lsn = read_directory(backend.path)["lsn"]
        backend.install_faults(FaultInjector(FaultPlan.crash_after_writes(1)))
        with pytest.raises(CrashError):
            backend.checkpoint()
        backend.close()
        reopened = open_file_scheme(backend.path)
        report = reopened.store.backend.recovery_report
        assert report["checkpoint_lsn"] == checkpoint_lsn
        assert report["replayed_transactions"] == 3
        assert [reopened.lookup(lid) for lid in lids] == labels
        reopened.store.backend.close()

    def test_a_checkpoint_torn_before_its_header_leaves_the_old_state(self, tmp_path):
        backend, ids = self._committed_file(tmp_path)
        backend.write(ids[0], [404, 405])
        # A commit without a tape is a checkpoint: it logs nothing and
        # writes its page images first.  Tearing the first one leaves the
        # header slots as they were: the commit never happened.
        arm_crash_after(backend, 0)
        with pytest.raises(CrashError):
            backend.commit([ids[0]])
        backend.close()
        assert scan_wal(backend.wal_path).committed == 0
        reopened = FileBackend(str(backend.path))
        assert reopened.recovery_report["checkpoint_lsn"] == reopened.lsn == 1
        assert reopened.read(ids[0]) == [0, 0]
        assert reopened.read(ids[1]) == [1, 1]
        reopened.close()

    def test_torn_superblock_repaired_from_wal(self, tmp_path):
        """The header slot a checkpoint writes is torn: the other slot
        still names the previous directory — whose extents the checkpoint
        never wrote over — and the log, not sealed yet, holds the tapes
        past it."""
        scheme, backend = make_file_scheme(tmp_path, WBox)
        lids = bulk(scheme, 24)
        lids += [taped.insert_before(scheme, lids[index]) for index in (5, 11)]
        labels = [scheme.lookup(lid) for lid in lids]
        backend.install_faults(FaultInjector(FaultPlan.superblock_crash(at=1)))
        with pytest.raises(CrashError):
            backend.checkpoint()
        backend.close()
        reopened = open_file_scheme(backend.path)
        assert reopened.store.backend.recovery_report["replayed_transactions"] == 2
        assert [reopened.lookup(lid) for lid in lids] == labels
        reopened.store.backend.close()

    def test_a_torn_header_slot_leaves_the_other_standing(self, tmp_path):
        backend, ids = self._committed_file(tmp_path)
        backend.checkpoint()
        backend.write(ids[1], [777])
        # Tear the header slot the commit's checkpoint writes: the other
        # slot still names the previous directory, whose extents that
        # checkpoint never wrote over.
        backend.install_faults(FaultInjector(FaultPlan.superblock_crash(at=1)))
        with pytest.raises(CrashError):
            backend.commit([ids[1]])
        backend.close()
        assert read_directory(backend.path)["lsn"] == 1
        reopened = FileBackend(str(backend.path))
        assert reopened.recovery_report["checkpoint_lsn"] == 1
        assert reopened.read(ids[1]) == [1, 1]
        reopened.close()

    def test_unreadable_superblock_without_wal_is_unrecoverable(self, tmp_path):
        backend, _ = self._committed_file(tmp_path)
        backend.checkpoint()
        backend.close()
        with open(backend.path, "r+b") as handle:
            for offset in filebackend_module.SLOTS:
                handle.seek(offset + 2)
                handle.write(b"\xff\xff\xff\xff")
        with pytest.raises(RecoveryError, match="neither header slot is valid"):
            FileBackend(str(backend.path))

    def test_a_corrupt_newest_directory_never_falls_back(self, tmp_path):
        """The older slot's extents may have been reused by the newer
        checkpoint, so a newest directory that fails its CRC is a typed
        error, not a silent step back."""
        backend, _ = self._committed_file(tmp_path)
        backend.checkpoint()
        offset, _length = read_directory(backend.path)["extent"]
        backend.close()
        with open(backend.path, "r+b") as handle:
            handle.seek(offset)
            handle.write(b"\xff")
        with pytest.raises(RecoveryError, match="fails its CRC"):
            FileBackend(str(backend.path))

    def test_a_header_whose_sync_failed_keeps_its_extents(self, tmp_path):
        """A transient error at the header slot's own sync leaves a slot
        that may be durable: the next checkpoint must not write over the
        extents it names.  Here it is durable (a simulated crash keeps
        what reached the OS), and the next checkpoint dies after writing
        all its images: reopening takes that slot, whose images must
        still be there, and re-runs the tapes past it."""
        path = str(tmp_path / "s.pages")
        scheme, backend = make_file_scheme(tmp_path, WBox, fsync=True)
        lids = bulk(scheme, 24)
        lids += [taped.insert_before(scheme, lids[index]) for index in (2, 9, 9)]
        # A checkpoint syncs twice: images and directory, then the header.
        backend.install_faults(
            FaultInjector(FaultPlan.transient_io_error(hook="backend.fsync", at=2))
        )
        with pytest.raises(TransientIOError):
            backend.checkpoint()
        lids += [taped.insert_before(scheme, lids[index]) for index in (4, 4, 17)]
        labels = [scheme.lookup(lid) for lid in lids]
        backend.install_faults(
            FaultInjector(FaultPlan([FaultSpec(TORN_WRITE, "backend.fsync", at=1)]))
        )
        with pytest.raises(CrashError):
            backend.checkpoint()
        backend.close()
        reopened = open_file_scheme(path)
        assert reopened.store.backend.recovery_report["replayed_transactions"] == 3
        assert [reopened.lookup(lid) for lid in lids] == labels
        reopened.check_invariants()
        reopened.store.backend.close()

    def test_crashed_backend_refuses_further_writes(self, tmp_path):
        backend = make_backend(tmp_path)
        block_id = backend.allocate([1])
        arm_crash_after(backend, 0)
        with pytest.raises(CrashError):
            backend.commit([block_id])
        with pytest.raises(CrashError, match="reopen to recover"):
            backend.commit([block_id])
        backend.close()


class TestSchemeCrashRecovery:
    """The acceptance bar: after any mid-operation crash, every LID of the
    reopened scheme looks up its pre-crash *committed* label."""

    @pytest.mark.parametrize("budget", [3, 17, 40])
    @pytest.mark.parametrize("name", sorted(SCHEME_FACTORIES))
    def test_lookups_match_committed_labels(self, tmp_path, name, budget):
        """An insert whose commit tears either never happened (no commit
        record in the log) or fully happened (record present, replayed on
        reopen) — never anything in between.  A twin scheme on the memory
        backend replays exactly the committed prefix and must agree on
        every label."""
        factory = SCHEME_FACTORIES[name]
        scheme, backend = make_file_scheme(tmp_path, factory, f"{name}.pages")
        lids = bulk(scheme, 24)
        arm_crash_after(backend, budget)
        crashed = False
        acked = backend.lsn
        try:
            for round_index in range(1000):
                anchor = lids[(7 * round_index) % len(lids)]
                lids.append(taped.insert_before(scheme, anchor))
                acked = backend.lsn
        except CrashError:
            crashed = True
        assert crashed, "budget never ran out; raise the op count"
        backend.close()

        reopened = open_file_scheme(str(tmp_path / f"{name}.pages"))
        committed_ops = len(lids) - 24
        if reopened.store.backend.lsn > acked:
            committed_ops += 1  # the torn op's commit record made the log
        twin = factory(TINY_CONFIG, store=None)
        twin_lids = bulk(twin, 24)
        for round_index in range(committed_ops):
            anchor = twin_lids[(7 * round_index) % len(twin_lids)]
            twin_lids.append(twin.insert_before(anchor))
        assert [reopened.lookup(lid) for lid in twin_lids] == [
            twin.lookup(lid) for lid in twin_lids
        ]
        # And the recovered structure is consistent enough to keep working.
        reopened.insert_before(twin_lids[0])
        if hasattr(reopened, "check_invariants"):
            reopened.check_invariants()
        reopened.store.backend.close()

    def test_read_only_operations_are_not_commit_points(self, tmp_path):
        """Lookups never write: a zero write budget still allows them, and
        they append nothing to the WAL."""
        scheme, backend = make_file_scheme(tmp_path, SCHEME_FACTORIES["wbox"])
        lids = bulk(scheme, 10)
        checkpoint_scheme(scheme)
        commits = backend.commits
        arm_crash_after(backend, 0)
        assert [scheme.lookup(lid) for lid in lids] == sorted(
            scheme.lookup(lid) for lid in lids
        )
        assert backend.commits == commits
        backend.close()


class TestOpenFileScheme:
    def test_requires_scheme_metadata(self, tmp_path):
        backend = make_backend(tmp_path)
        backend.commit([backend.allocate([1])])
        backend.close()
        with pytest.raises(PersistError, match="no scheme metadata"):
            open_file_scheme(str(tmp_path / "t.pages"))

    @pytest.mark.parametrize("name", sorted(SCHEME_FACTORIES))
    def test_round_trip_and_continue(self, tmp_path, name):
        scheme, backend = make_file_scheme(tmp_path, SCHEME_FACTORIES[name], f"{name}.pages")
        lids = bulk(scheme, 30)
        for i in range(10):
            lids.append(scheme.insert_before(lids[i * 2]))
        order = sorted(lids, key=scheme.lookup)
        clock = scheme.clock
        checkpoint_scheme(scheme)
        backend.close()

        reopened = open_file_scheme(str(tmp_path / f"{name}.pages"))
        assert reopened.stats.reads == 0 and reopened.stats.writes == 0
        assert reopened.clock == clock
        assert sorted(lids, key=reopened.lookup) == order
        # Cold-decode path: same answers straight off the pages.
        reopened.store.backend.drop_clean_objects()
        assert sorted(lids, key=reopened.lookup) == order
        # The reopened scheme keeps working (derived order lists, LIDF
        # directory and allocation state were all restored).
        new_lid = reopened.insert_before(order[3])
        assert reopened.compare(new_lid, order[3]) < 0
        reopened.store.backend.close()


class TestBatchOnFileBackend:
    """The batch engine's equivalence oracle, rerun on a durable backend,
    plus the group-commit surfacing."""

    def _mixed_ops(self, scheme, count=40):
        """A deterministic mixed insert/delete/lookup tape, built against
        ``scheme`` (which it mutates).  Anchor choices follow the live list
        so the same concrete LIDs replay on an identical twin scheme."""
        lids = bulk(scheme, 16)
        ops = []
        for i in range(count):
            anchor = lids[(5 * i) % len(lids)]
            if i % 7 == 3 and len(lids) > 10:
                ops.append(BatchOp("delete", (anchor,)))
                scheme.delete(anchor)
                lids.remove(anchor)
            elif i % 3 == 0:
                ops.append(BatchOp("lookup", (anchor,)))
                scheme.lookup(anchor)
            else:
                ops.append(BatchOp("insert_before", (anchor,)))
                lids.append(scheme.insert_before(anchor))
        return lids, ops

    @pytest.mark.parametrize("name", sorted(SCHEME_FACTORIES))
    def test_equivalence_oracle(self, tmp_path, name):
        factory = SCHEME_FACTORIES[name]
        oracle = factory(TINY_CONFIG, store=None)
        live, ops = self._mixed_ops(oracle)
        subject, backend = make_file_scheme(tmp_path, factory, f"{name}.pages")
        bulk(subject, 16)
        result = BatchExecutor(subject, group_size=8).execute(ops)
        # The whole run is one WAL commit however many groups it has.
        assert result.group_count > 1
        assert result.backend_commits == 1
        assert sorted(live, key=subject.lookup) == sorted(live, key=oracle.lookup)
        assert [subject.lookup(lid) for lid in live] == [
            oracle.lookup(lid) for lid in live
        ]
        # Durability: the batched state survives checkpoint + reopen.
        checkpoint_scheme(subject)
        backend.close()
        reopened = open_file_scheme(str(tmp_path / f"{name}.pages"))
        assert [reopened.lookup(lid) for lid in live] == [
            oracle.lookup(lid) for lid in live
        ]
        reopened.store.backend.close()

    def test_memory_backend_reports_zero_commits(self):
        scheme = BBox(TINY_CONFIG)
        scheme.bulk_load(8)
        result = BatchExecutor(scheme, group_size=4).execute(
            [BatchOp("lookup", (0,))] * 6
        )
        assert result.backend_commits == 0
