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


def _traced(lidf):
    """Record the store blocks ``lidf`` touches, in call order."""
    touched = []
    store = lidf.store
    for name in ("read", "write", "allocate"):
        method = getattr(store, name)

        def traced(*args, _method=method):
            result = _method(*args)
            touched.append(result if _method.__name__ == "allocate" else args[0])
            return result

        setattr(store, name, traced)
    return touched


def _first_touches(touched):
    return list(dict.fromkeys(touched))


def _twin_state(lidf, touched):
    """Everything a run primitive must leave exactly as the loop does."""
    store = lidf.store
    return (
        list(lidf.peek_records()),
        lidf.persist_state(),
        None if lidf.journal is None else list(lidf.journal),
        store.stats.snapshot(),
        (store.stats.cache_hits, store.stats.cache_misses, store.stats.allocs),
        list(store.cache._probation),
        _first_touches(touched),
    )


class TestAllocateMany:
    """``allocate_many`` is a loop of ``allocate`` that touches each LIDF
    block once: the same LIDs, records, journal ops, counted I/O and
    first-touch order (with a small cache on, the same recency list)."""

    CASES = {
        # prefilled records, freed LIDs (in free order), values to allocate
        "empty file": (0, [], 3 * RPB + 3),
        "mid-block run over several blocks": (RPB // 2 + 1, [], 3 * RPB),
        "free heap first, then the tail": (3 * RPB, [17, 2, 9, 3, 20], 12),
        "free heap only": (3 * RPB, [17, 2, 9, 3, 20], 3),
        "nothing": (5, [], 0),
    }

    @staticmethod
    def _twin(prefill, frees, journal):
        lidf = HeapFile(BlockStore(TINY_CONFIG, cache_capacity=2))
        for i in range(prefill):
            lidf.allocate(("old", i))
        for lid in frees:
            lidf.free(lid)
        if journal:
            lidf.journal = []
        return lidf

    @pytest.mark.parametrize("journal", [True, False], ids=["journal", "no-journal"])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_equals_a_loop_of_allocate(self, case, journal):
        from .lidf_reference import fold_lidf_journal

        prefill, frees, count = self.CASES[case]
        values = [("new", i) for i in range(count)]
        looped, batched = self._twin(prefill, frees, journal), self._twin(prefill, frees, journal)
        base = batched.persist_state()
        loop_touches, batch_touches = _traced(looped), _traced(batched)
        with looped.store.operation():
            loop_lids = [looped.allocate(value) for value in values]
        with batched.store.operation():
            batch_lids = batched.allocate_many(values)
        assert batch_lids == loop_lids
        assert _twin_state(batched, batch_touches) == _twin_state(looped, loop_touches)
        if journal:
            tail, live = fold_lidf_journal(base["block_ids"], base["free"], iter(batched.journal))
            base["tail"] += tail
            base["live"] += live
            assert base == batched.persist_state()

    def test_one_read_and_write_per_block(self):
        lidf = self._twin(RPB // 2 + 1, [], journal=False)
        touched = _traced(lidf)
        with lidf.store.operation():
            lidf.allocate_many(list(range(3 * RPB)))
        blocks = lidf._block_ids
        # the partial first block, two full blocks, the partial last block
        assert touched == [
            blocks[0], blocks[0],
            blocks[1], blocks[1], blocks[1],
            blocks[2], blocks[2], blocks[2],
            blocks[3], blocks[3], blocks[3],
        ]


class TestRepoint:
    """``repoint(lids, value)`` — a leaf's records pointed at it — is a
    ``write`` loop, one slice per block for a list that is one ascending
    run: the same records, counted I/O, cache state and first-touch
    order, and all or nothing."""

    # one ascending run over several blocks (sliced); scattered, descending
    # and repeated LIDs with a short run across a block end (write_many)
    CALLS = [
        (list(range(3, 3 + 2 * RPB + 2)), "leaf-a"),
        ([2 * RPB + 7, RPB - 1, RPB, RPB + 1, 2 * RPB + 6, 4, 4], "leaf-b"),
        (list(range(2 * RPB + 6, 3 * RPB)), "leaf-c"),
    ]

    @staticmethod
    def _filled():
        lidf = HeapFile(BlockStore(TINY_CONFIG, cache_capacity=2))
        for i in range(3 * RPB):
            lidf.allocate(i)
        return lidf

    def test_equals_a_write_loop(self):
        looped, batched = self._filled(), self._filled()
        loop_touches, batch_touches = _traced(looped), _traced(batched)
        for lids, value in self.CALLS:  # one operation each
            loop_touches.clear()
            batch_touches.clear()
            with looped.store.operation():
                for lid in lids:
                    looped.write(lid, value)
            with batched.store.operation():
                batched.repoint(lids, value)
            assert _twin_state(batched, batch_touches) == _twin_state(looped, loop_touches)
        assert batched.read(4) == "leaf-b" and batched.read(5) == "leaf-a"

    def test_one_read_and_write_per_block(self):
        lidf = self._filled()
        touched = _traced(lidf)
        lidf.repoint(list(range(RPB - 2, 2 * RPB + 2)), "leaf")
        blocks = lidf._block_ids
        assert touched == [blocks[0], blocks[1], blocks[2], blocks[0], blocks[1], blocks[2]]

    @pytest.mark.parametrize(
        "lids, bad_lid",
        [
            (list(range(2, 3 * RPB)), RPB + 2),  # freed, inside a run
            ([1, 2, RPB + 1, RPB + 2, RPB + 3], RPB + 2),  # the same, among others
            (list(range(2 * RPB, 3 * RPB + 1)), 3 * RPB),  # a run past the tail
            ([1, 3 * RPB - 1, 3 * RPB], 3 * RPB),  # the same, among others
            ([3, 4, -1], -1),
            (list(range(-1, 3)), -1),  # a run from a negative LID
        ],
    )
    def test_a_dead_lid_raises_and_changes_nothing(self, lids, bad_lid):
        lidf = self._filled()
        lidf.free(RPB + 2)
        before = list(lidf.peek_records())
        with pytest.raises(RecordNotFoundError, match=f"LID {bad_lid} "):
            lidf.repoint(lids, "x")
        assert list(lidf.peek_records()) == before

    def test_empty_input_is_a_no_op(self):
        lidf = self._filled()
        with lidf.store.measured() as cost:
            lidf.repoint([], "x")
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
