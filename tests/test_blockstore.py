"""BlockStore: allocation, I/O counting, per-operation buffering, and the
LRU / segmented-LRU caches.

Beyond feature coverage, this file pins the operation-scope semantics the
batch engine's group commit builds on: nested scopes flush once at the
outermost exit, a block freed after being dirtied is not written at flush,
and measured costs stay correct when the measured body raises."""

import pytest

from repro.config import TINY_CONFIG
from repro.errors import BlockNotFoundError, StorageError
from repro.storage import BlockStore


@pytest.fixture
def store():
    return BlockStore(TINY_CONFIG)


class TestLifecycle:
    def test_allocate_returns_distinct_ids(self, store):
        ids = {store.allocate(i) for i in range(10)}
        assert len(ids) == 10
        assert 0 not in ids  # 0 is the null pointer

    def test_allocate_counts_one_write(self, store):
        store.allocate("x")
        assert store.stats.writes == 1
        assert store.stats.allocs == 1

    def test_free_then_reuse_id(self, store):
        block = store.allocate("a")
        store.free(block)
        assert not store.exists(block)
        assert store.allocate("b") == block

    def test_free_unknown_block_raises(self, store):
        with pytest.raises(BlockNotFoundError):
            store.free(999)

    def test_len_tracks_allocated(self, store):
        blocks = [store.allocate(i) for i in range(5)]
        store.free(blocks[0])
        assert len(store) == store.block_count == 4


class TestCounting:
    def test_read_costs_one_io(self, store):
        block = store.allocate("payload")
        before = store.stats.reads
        assert store.read(block) == "payload"
        assert store.stats.reads == before + 1

    def test_write_outside_operation_counts_immediately(self, store):
        block = store.allocate("a")
        writes = store.stats.writes
        store.write(block, "b")
        store.write(block, "c")
        assert store.stats.writes == writes + 2

    def test_peek_is_free(self, store):
        block = store.allocate("a")
        snapshot = store.stats.snapshot()
        assert store.peek(block) == "a"
        assert store.stats.snapshot() == snapshot

    def test_read_missing_block_raises(self, store):
        with pytest.raises(BlockNotFoundError):
            store.read(12345)


class TestOperationBuffering:
    def test_repeated_reads_cost_once(self, store):
        block = store.allocate("a")
        with store.operation():
            start = store.stats.reads
            for _ in range(10):
                store.read(block)
            assert store.stats.reads == start + 1

    def test_dirty_blocks_written_once_at_end(self, store):
        block = store.allocate("a")
        with store.operation():
            writes = store.stats.writes
            for _ in range(10):
                store.write(block, "b")
            assert store.stats.writes == writes  # deferred
        assert store.stats.writes == writes + 1

    def test_written_block_readable_for_free(self, store):
        with store.operation():
            block = store.allocate("a")
            reads = store.stats.reads
            store.read(block)  # just written in this op: buffered
            assert store.stats.reads == reads

    def test_nested_operations_flush_once(self, store):
        block = store.allocate("a")
        with store.operation():
            with store.operation():
                store.write(block)
            writes = store.stats.writes
            store.write(block)
        assert store.stats.writes == writes + 1

    def test_buffers_evicted_between_operations(self, store):
        block = store.allocate("a")
        with store.operation():
            store.read(block)
        reads = store.stats.reads
        with store.operation():
            store.read(block)
        assert store.stats.reads == reads + 1

    def test_measured_reports_cost(self, store):
        blocks = [store.allocate(i) for i in range(3)]
        with store.measured() as op:
            for block in blocks:
                store.read(block)
            store.write(blocks[0])
        assert op.reads == 3
        assert op.writes == 1
        assert op.total == 4

    def test_measured_cost_unavailable_inside(self, store):
        with store.measured() as op:
            with pytest.raises(StorageError):
                _ = op.cost

    def test_freed_block_not_flushed(self, store):
        with store.operation():
            writes_before = store.stats.writes
            block = store.allocate("temp")
            store.free(block)
        # The freed block must not be written at flush.
        assert store.stats.writes == writes_before


class TestLRUCache:
    def test_cache_hit_is_free(self):
        store = BlockStore(TINY_CONFIG, cache_capacity=4)
        block = store.allocate("a")
        store.read(block)
        reads = store.stats.reads
        store.read(block)
        assert store.stats.reads == reads
        assert store.stats.cache_hits >= 1

    def test_eviction_beyond_capacity(self):
        store = BlockStore(TINY_CONFIG, cache_capacity=2)
        blocks = [store.allocate(i) for i in range(3)]
        for block in blocks:
            store.read(block)
        reads = store.stats.reads
        store.read(blocks[0])  # evicted by now: costs a read
        assert store.stats.reads == reads + 1

    def test_no_cache_by_default(self, store):
        block = store.allocate("a")
        store.read(block)
        reads = store.stats.reads
        store.read(block)
        assert store.stats.reads == reads + 1

    def test_freed_blocks_leave_cache(self):
        store = BlockStore(TINY_CONFIG, cache_capacity=4)
        block = store.allocate("a")
        store.read(block)
        store.free(block)
        replacement = store.allocate("b")
        if replacement == block:
            assert store.read(replacement) == "b"

    def test_reused_id_does_not_inherit_stale_lru_entry(self):
        """free() must evict the id from the cache: a recycled id belongs to
        an unrelated block and its first cold read is a real (counted) I/O."""
        store = BlockStore(TINY_CONFIG, cache_capacity=4)
        block = store.allocate("old")
        store.read(block)  # cached
        store.free(block)
        reborn = store.allocate("new")
        assert reborn == block  # LIFO recycling
        # Allocation write-through re-caches the reborn block, which is
        # correct — but only the *eviction on free* makes the hit below
        # belong to the new payload, never the old one.
        store.cache.evict(reborn)
        reads = store.stats.reads
        assert store.read(reborn) == "new"
        assert store.stats.reads == reads + 1  # counted: no stale hit


class TestOperationScopeRegression:
    """Semantics the batch engine's group commit depends on."""

    def test_nested_scopes_flush_only_at_outermost_exit(self, store):
        block = store.allocate("a")
        with store.operation():
            writes = store.stats.writes
            with store.operation():
                store.write(block, "b")
            # Inner exit must NOT flush: the outer scope still owns the block.
            assert store.stats.writes == writes
            assert store.in_operation
        assert store.stats.writes == writes + 1
        assert not store.in_operation

    def test_read_buffer_shared_across_nested_scopes(self, store):
        block = store.allocate("a")
        with store.operation():
            store.read(block)
            reads = store.stats.reads
            with store.operation():
                store.read(block)  # buffered by the outer scope: free
            assert store.stats.reads == reads

    def test_free_of_dirtied_block_cancels_its_write(self, store):
        block = store.allocate("keep")
        with store.operation():
            writes = store.stats.writes
            store.write(block, "dirty")
            store.free(block)
        assert store.stats.writes == writes
        assert not store.exists(block)

    def test_free_then_reallocate_same_id_in_scope(self, store):
        with store.operation():
            block = store.allocate("first")
            store.free(block)
            reborn = store.allocate("second")
            assert reborn == block
            writes_before_flush = store.stats.writes
        # The reborn block is dirty and must be written exactly once.
        assert store.stats.writes == writes_before_flush + 1
        assert store.peek(reborn) == "second"

    def test_measured_cost_correct_when_body_raises(self, store):
        blocks = [store.allocate(i) for i in range(3)]
        with pytest.raises(RuntimeError):
            with store.measured() as op:
                store.read(blocks[0])
                store.write(blocks[1])
                raise RuntimeError("mid-operation failure")
        # The scope unwound: buffers flushed, depth restored, cost readable.
        assert not store.in_operation
        assert op.reads == 1 and op.writes == 1
        with store.operation():
            pass  # a fresh scope still works

    def test_measured_nested_inside_operation_defers_to_outer(self, store):
        block = store.allocate("a")
        with store.operation():
            with store.measured() as op:
                store.write(block)
            # Inner measured scope sees no writes: the outer scope holds them.
            assert op.writes == 0

    def test_write_calls_payload_touch(self, store):
        class Payload:
            def __init__(self):
                self.touched = 0

            def touch(self):
                self.touched += 1

        payload = Payload()
        block = store.allocate(payload)
        store.write(block)
        store.write(block)
        assert payload.touched == 2

    def test_write_skips_touch_for_lists(self, store):
        block = store.allocate([1, 2, 3])
        store.write(block)  # must not probe for .touch on list payloads
        assert store.peek(block) == [1, 2, 3]


class TestLRUEvictionOrder:
    def test_least_recently_used_goes_first(self):
        store = BlockStore(TINY_CONFIG, cache_capacity=2)
        a, b, c = (store.allocate(i) for i in range(3))
        store.read(a)
        store.read(b)
        store.read(a)  # refresh a; b is now LRU
        store.read(c)  # evicts b
        reads = store.stats.reads
        store.read(a)
        assert store.stats.reads == reads  # still cached
        store.read(b)
        assert store.stats.reads == reads + 1  # evicted

    def test_write_refreshes_recency(self):
        store = BlockStore(TINY_CONFIG, cache_capacity=2)
        a, b, c = (store.allocate(i) for i in range(3))
        store.read(a)
        store.read(b)
        store.write(a)  # write-through: refreshes a's recency
        store.read(c)  # evicts b, not a
        reads = store.stats.reads
        store.read(a)
        assert store.stats.reads == reads


class TestSLRUCache:
    def test_invalid_mode_rejected(self):
        with pytest.raises(StorageError, match="cache_mode"):
            BlockStore(TINY_CONFIG, cache_mode="arc")

    def test_hit_promotes_to_protected(self):
        store = BlockStore(TINY_CONFIG, cache_capacity=10, cache_mode="slru")
        hot = store.allocate("hot")
        store.read(hot)  # miss -> probation
        store.read(hot)  # probationary hit -> protected
        assert hot in store.cache._protected

    def test_one_shot_scan_cannot_flush_protected(self):
        store = BlockStore(TINY_CONFIG, cache_capacity=10, cache_mode="slru")
        hot = store.allocate("hot")
        store.read(hot)
        store.read(hot)  # promoted: protected
        # A scan over many cold blocks, each touched once.
        for block in [store.allocate(i) for i in range(50)]:
            store.read(block)
        reads = store.stats.reads
        store.read(hot)
        assert store.stats.reads == reads  # survived the scan

    def test_same_scan_flushes_plain_lru(self):
        store = BlockStore(TINY_CONFIG, cache_capacity=10, cache_mode="lru")
        hot = store.allocate("hot")
        store.read(hot)
        store.read(hot)
        for block in [store.allocate(i) for i in range(50)]:
            store.read(block)
        reads = store.stats.reads
        store.read(hot)
        assert store.stats.reads == reads + 1  # the scan evicted it

    def test_protected_overflow_demotes_to_probation(self):
        store = BlockStore(TINY_CONFIG, cache_capacity=5, cache_mode="slru")
        # protected capacity 4, probation capacity 1
        blocks = [store.allocate(i) for i in range(5)]
        for block in blocks:
            store.read(block)
            store.read(block)  # promote each; the 5th promotion overflows
        assert len(store.cache._protected) <= store.cache.protected_capacity
        assert len(store.cache._probation) <= store.cache.probation_capacity

    def test_hit_and_miss_accounting(self):
        store = BlockStore(TINY_CONFIG, cache_capacity=4, cache_mode="slru")
        block = store.allocate("a")
        # Allocation write-through caches the block; push it out of the
        # 1-slot probationary segment first so the next read is a miss.
        for _ in range(3):
            store.allocate("filler")
        store.read(block)  # miss
        store.read(block)  # hit (promotion)
        store.read(block)  # hit (protected)
        assert store.stats.cache_misses == 1
        assert store.stats.cache_hits == 2
        assert store.stats.hit_ratio == pytest.approx(2 / 3)

    def test_hit_ratio_zero_without_probes(self):
        store = BlockStore(TINY_CONFIG)
        block = store.allocate("a")
        store.read(block)
        assert store.stats.hit_ratio == 0.0

    def test_freed_block_evicted_from_protected_segment(self):
        """A block promoted into the SLRU protected segment must be evicted
        by free(): the id can be recycled, and a stale protected entry would
        hand the unrelated new block free (uncounted) reads forever."""
        store = BlockStore(TINY_CONFIG, cache_capacity=10, cache_mode="slru")
        hot = store.allocate("hot")
        store.read(hot)
        store.read(hot)  # promoted to protected
        assert hot in store.cache._protected
        store.free(hot)
        assert hot not in store.cache._protected
        assert hot not in store.cache._probation
        reborn = store.allocate("cold")
        assert reborn == hot  # LIFO recycling reuses the id
        store.cache.evict(reborn)  # drop the allocation write-through entry
        reads = store.stats.reads
        assert store.read(reborn) == "cold"
        assert store.stats.reads == reads + 1  # cold read, honestly counted


class TestStatsReset:
    def test_reset_zeroes_counters(self, store):
        store.allocate("a")
        store.stats.reset()
        assert store.stats.reads == store.stats.writes == 0
        assert store.stats.total_io == 0

    def test_snapshot_arithmetic(self, store):
        a = store.stats.snapshot()
        store.allocate("x")
        b = store.stats.snapshot()
        delta = b - a
        assert delta.writes == 1 and delta.reads == 0
        assert (delta + delta).total == 2
