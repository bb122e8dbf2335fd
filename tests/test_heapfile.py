"""HeapFile (LIDF): allocation, compactness, pair adjacency, scans."""

import pytest

from repro import WBox
from repro.config import TINY_CONFIG
from repro.errors import RecordNotFoundError
from repro.storage import BlockStore, HeapFile


@pytest.fixture
def lidf():
    return HeapFile(BlockStore(TINY_CONFIG))


RPB = TINY_CONFIG.lidf_records_per_block  # 8 in the tiny config


class TestAllocation:
    def test_lids_are_dense_from_zero(self, lidf):
        assert [lidf.allocate(i) for i in range(5)] == [0, 1, 2, 3, 4]

    def test_read_returns_stored_value(self, lidf):
        lid = lidf.allocate({"pointer": 42})
        assert lidf.read(lid) == {"pointer": 42}

    def test_write_overwrites(self, lidf):
        lid = lidf.allocate(1)
        lidf.write(lid, 2)
        assert lidf.read(lid) == 2

    def test_freed_lids_are_reused_lowest_first(self, lidf):
        for i in range(6):
            lidf.allocate(i)
        lidf.free(4)
        lidf.free(1)
        assert lidf.allocate("x") == 1
        assert lidf.allocate("y") == 4
        assert lidf.allocate("z") == 6

    def test_read_after_free_raises(self, lidf):
        lid = lidf.allocate(1)
        lidf.free(lid)
        with pytest.raises(RecordNotFoundError):
            lidf.read(lid)

    def test_double_free_raises(self, lidf):
        lid = lidf.allocate(1)
        lidf.free(lid)
        with pytest.raises(RecordNotFoundError):
            lidf.free(lid)

    def test_unknown_lid_raises(self, lidf):
        with pytest.raises(RecordNotFoundError):
            lidf.read(99)

    def test_len_counts_live_records(self, lidf):
        lids = [lidf.allocate(i) for i in range(4)]
        lidf.free(lids[0])
        assert len(lidf) == 3

    def test_exists(self, lidf):
        lid = lidf.allocate(1)
        assert lidf.exists(lid)
        assert not lidf.exists(lid + 1)
        lidf.free(lid)
        assert not lidf.exists(lid)


class TestPairs:
    def test_pair_single_io_for_both_records(self):
        """The paper's "obvious optimization": ``insert_element_before``
        takes its two LIDs back to back, so on a fresh store they share an
        LIDF block and one I/O fetches both records."""
        scheme = WBox(TINY_CONFIG)
        base = scheme.bulk_load(2)
        start, end = scheme.insert_element_before(base[1])
        assert sorted((start, end)) == [2, 3] and start // RPB == end // RPB
        with scheme.store.measured() as op:
            scheme.lidf.read(start)
            scheme.lidf.read(end)
        assert op.reads == 1


class TestGeometry:
    def test_block_growth(self, lidf):
        for i in range(RPB + 1):
            lidf.allocate(i)
        assert lidf.block_count == 2

    def test_record_io_costs_one_block(self, lidf):
        lids = [lidf.allocate(i) for i in range(RPB * 2)]
        with lidf.store.measured() as op:
            lidf.read(lids[0])
        assert op.reads == 1

    def test_compactness_after_churn(self, lidf):
        lids = [lidf.allocate(i) for i in range(RPB * 2)]
        for lid in lids[: RPB // 2]:
            lidf.free(lid)
        for i in range(RPB // 2):
            lidf.allocate(f"new{i}")
        assert lidf.high_water_lid == RPB * 2  # no growth: slots reused


class TestBulkAccess:
    def test_scan_yields_live_in_order(self, lidf):
        lids = [lidf.allocate(i * 10) for i in range(5)]
        lidf.free(lids[2])
        assert list(lidf.scan()) == [(0, 0), (1, 10), (3, 30), (4, 40)]

    def test_scan_costs_one_read_per_block(self, lidf):
        for i in range(3 * RPB):
            lidf.allocate(i)
        with lidf.store.measured() as op:
            list(lidf.scan())
        assert op.reads == 3

    def test_rewrite_all_transforms_live_records(self, lidf):
        for i in range(5):
            lidf.allocate(i)
        lidf.free(3)
        lidf.rewrite_all(lambda lid, value: value * 2)
        assert [value for _, value in lidf.scan()] == [0, 2, 4, 8]

    def test_rewrite_all_costs_one_pass(self, lidf):
        for i in range(2 * RPB):
            lidf.allocate(i)
        with lidf.store.measured() as op:
            lidf.rewrite_all(lambda lid, value: value)
        assert op.reads == 2 and op.writes == 2


class TestWriteMany:
    """``write_many`` is a loop of ``write`` that touches each LIDF block
    once: the same records, the same counted I/O, the same first-touch
    order — and all or nothing."""

    PAIRS = [(9, "a"), (2, "b"), (17, "c"), (3, "d"), (10, "e"), (2, "f")]

    @staticmethod
    def _filled():
        lidf = HeapFile(BlockStore(TINY_CONFIG))
        for i in range(3 * RPB):
            lidf.allocate(i)
        return lidf

    def test_same_records_as_a_write_loop(self):
        looped, batched = self._filled(), self._filled()
        for lid, value in self.PAIRS:
            looped.write(lid, value)
        batched.write_many(self.PAIRS)
        assert list(batched.peek_records()) == list(looped.peek_records())

    def test_same_counted_io_inside_an_operation(self):
        looped, batched = self._filled(), self._filled()
        with looped.store.measured() as loop_cost:
            for lid, value in self.PAIRS:
                looped.write(lid, value)
        with batched.store.measured() as batch_cost:
            batched.write_many(self.PAIRS)
        assert (batch_cost.reads, batch_cost.writes) == (loop_cost.reads, loop_cost.writes)
        assert (batch_cost.reads, batch_cost.writes) == (3, 3)

    def test_one_read_and_write_per_block_in_first_touch_order(self):
        lidf = self._filled()
        calls = []
        store = lidf.store
        read, write = store.read, store.write
        store.read = lambda block_id: calls.append(("read", block_id)) or read(block_id)
        store.write = lambda block_id: calls.append(("write", block_id)) or write(block_id)
        lidf.write_many(self.PAIRS)
        first, second, third = (lidf._block_ids[lid // RPB] for lid in (9, 2, 17))
        assert calls == [
            ("read", first), ("read", second), ("read", third),
            ("write", first), ("write", second), ("write", third),
        ]

    @pytest.mark.parametrize("bad_lid", [5, 3 * RPB, -1])
    def test_a_dead_lid_raises_and_changes_nothing(self, bad_lid):
        lidf = self._filled()
        lidf.free(5)
        before = list(lidf.peek_records())
        with pytest.raises(RecordNotFoundError):
            lidf.write_many([(1, "x"), (12, "y"), (bad_lid, "z"), (20, "w")])
        assert list(lidf.peek_records()) == before

    def test_empty_input_is_a_no_op(self):
        lidf = self._filled()
        with lidf.store.measured() as cost:
            lidf.write_many([])
        assert cost.total == 0


class TestJournal:
    """What a file backend journals per commit: the allocation ops, which
    folded over an older ``persist_state()`` must reproduce the newer one
    exactly — free-heap order included."""

    def test_off_by_default(self, lidf):
        lidf.allocate(1)
        assert lidf.journal is None

    @pytest.mark.parametrize("seed", range(8))
    def test_fold_reproduces_the_directory(self, lidf, seed):
        import random

        from .lidf_reference import fold_lidf_journal

        rng = random.Random(seed)
        live = [lidf.allocate(i) for i in range(3 * RPB)]
        for lid in rng.sample(live, RPB):
            lidf.free(lid)
            live.remove(lid)
        base = lidf.persist_state()
        lidf.journal = []
        for _ in range(120):
            roll = rng.random()
            if roll < 0.4 and live:
                lidf.free(live.pop(rng.randrange(len(live))))
            else:
                live.append(lidf.allocate("x"))
        codes = set(lidf.journal[::2])
        assert codes == {0, 1, 2, 4}, "tail, pop, free and block ops all seen"
        tail, count = fold_lidf_journal(base["block_ids"], base["free"], iter(lidf.journal))
        base["tail"] += tail
        base["live"] += count
        assert base == lidf.persist_state()

    def test_runs_of_fresh_allocations_are_one_op(self, lidf):
        lidf.journal = []
        for i in range(RPB - 1):
            lidf.allocate(i)
        # first record, the block it needed, then one op for the run
        assert lidf.journal == [0, 1, 4, lidf._block_ids[0], 0, RPB - 2]
