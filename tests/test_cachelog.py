"""Section 6: caching and logging — effects, replay, invalidation, the
basic-caching degenerate case."""

import pytest

from repro import BBox, CachedLabelStore, ModificationLog, TINY_CONFIG, WBox
from repro.core.cachelog import (
    Invalidate,
    ORDINAL_CHANNEL,
    RangeShift,
    _at_least,
    _at_most,
    invalidate_all,
)
from repro.errors import CacheError


class TestRangeShift:
    def test_int_shift_inside_range(self):
        effect = RangeShift(1, 10, 20, +2)
        assert effect.apply(15) == 17
        assert effect.apply(10) == 12
        assert effect.apply(20) == 22

    def test_int_outside_range_untouched(self):
        effect = RangeShift(1, 10, 20, +2)
        assert effect.apply(9) == 9
        assert effect.apply(21) == 21

    def test_unbounded_range(self):
        effect = RangeShift(1, 100, None, -1)
        assert effect.apply(1_000_000) == 999_999
        assert effect.apply(99) == 99

    def test_tuple_shift_affects_last_component(self):
        effect = RangeShift(1, (0, 2, 3), (0, 2, 5), +1)
        assert effect.apply((0, 2, 4)) == (0, 2, 5)
        assert effect.apply((0, 2, 6)) == (0, 2, 6)
        assert effect.apply((0, 1, 4)) == (0, 1, 4)

    def test_never_invalidates(self):
        assert not RangeShift(1, 0, 1, 1).invalidates


class TestInvalidate:
    def test_int_range(self):
        effect = Invalidate(1, 10, 20)
        assert effect.hits(10) and effect.hits(20) and effect.hits(15)
        assert not effect.hits(9) and not effect.hits(21)

    def test_everything(self):
        effect = invalidate_all(1)
        assert effect.hits(0) and effect.hits((1, 2, 3))

    def test_tuple_prefix_upper_bound(self):
        # hi=(0,2) prefix-inclusive: everything under child 2 of child 0.
        effect = Invalidate(1, (0, 2), (0, 2))
        assert effect.hits((0, 2, 0)) and effect.hits((0, 2, 99))
        assert not effect.hits((0, 1, 9))
        assert not effect.hits((0, 3, 0))

    def test_open_upper_bound(self):
        effect = Invalidate(1, (1, 4), None)
        assert effect.hits((1, 4, 0)) and effect.hits((2, 0, 0))
        assert not effect.hits((1, 3, 9))


class TestModificationLog:
    def test_replay_applies_newer_effects_in_order(self):
        log = ModificationLog(capacity=8)
        log.record(RangeShift(1, 0, None, +1))
        log.record(RangeShift(2, 0, None, +1))
        log.record(RangeShift(3, 100, None, +1))
        assert log.snapshot(advance_epoch=False).replay(50, last_cached=0) == 52
        assert log.snapshot(advance_epoch=False).replay(50, last_cached=1) == 51
        assert log.snapshot(advance_epoch=False).replay(50, last_cached=3) == 50

    def test_dropped_history_forces_miss(self):
        log = ModificationLog(capacity=2)
        for timestamp in range(1, 6):
            log.record(RangeShift(timestamp, 0, None, +1))
        assert log.snapshot(advance_epoch=False).replay(10, last_cached=0) is None
        assert log.snapshot(advance_epoch=False).replay(10, last_cached=3) == 12

    def test_invalidation_forces_miss_only_when_hit(self):
        log = ModificationLog(capacity=4)
        log.record(Invalidate(1, 100, 200))
        assert log.snapshot(advance_epoch=False).replay(150, last_cached=0) is None
        assert log.snapshot(advance_epoch=False).replay(50, last_cached=0) == 50

    def test_capacity_zero_is_basic_caching(self):
        log = ModificationLog(capacity=0)
        # nothing happened yet
        assert log.snapshot(advance_epoch=False).replay(5, last_cached=0) == 5
        log.record(RangeShift(1, 0, None, +1))
        # any update kills it; cached after the update
        assert log.snapshot(advance_epoch=False).replay(5, last_cached=0) is None
        assert log.snapshot(advance_epoch=False).replay(5, last_cached=1) == 5

    def test_channels_are_separate(self):
        log = ModificationLog(capacity=4)
        log.record(RangeShift(1, 0, None, +5, ORDINAL_CHANNEL))
        snapshot = log.snapshot(advance_epoch=False)
        assert snapshot.replay(10, last_cached=0) == 10  # label channel untouched
        assert snapshot.replay(10, last_cached=0, channel=ORDINAL_CHANNEL) == 15

    def test_negative_capacity_rejected(self):
        with pytest.raises(CacheError):
            ModificationLog(capacity=-1)


class TestCachedLabelStore:
    def test_fresh_hit_costs_no_io(self):
        scheme = WBox(TINY_CONFIG)
        lids = scheme.bulk_load(20)
        cache = CachedLabelStore(scheme, log_capacity=4)
        ref = cache.reference(lids[5])
        with scheme.store.measured() as op:
            value = cache.get(ref)
        assert op.total == 0
        assert value == scheme.lookup(lids[5])
        assert cache.counters.fresh_hits == 1

    def test_replayed_hit_costs_no_io(self):
        scheme = WBox(TINY_CONFIG)
        lids = scheme.bulk_load(20)
        scheme.delete(lids[9])  # leave slack so the next insert stays leaf-local
        cache = CachedLabelStore(scheme, log_capacity=8)
        ref = cache.reference(lids[10])
        scheme.insert_before(lids[10])  # shifts the cached label, no split
        with scheme.store.measured() as op:
            value = cache.get(ref)
        assert op.total == 0
        assert value == scheme.lookup(lids[10])
        assert cache.counters.replay_hits == 1

    def test_miss_pays_full_lookup_and_recaches(self):
        scheme = WBox(TINY_CONFIG)
        lids = scheme.bulk_load(20)
        cache = CachedLabelStore(scheme, log_capacity=0)
        ref = cache.reference(lids[10])
        scheme.insert_before(lids[10])
        assert cache.get(ref) == scheme.lookup(lids[10])
        assert cache.counters.fallthrough_reads == 1
        # Re-read without further updates: now a fresh hit.
        cache.get(ref)
        assert cache.counters.fresh_hits == 1

    def test_k_entries_survive_k_modifications(self):
        # "A log with k entries gives roughly a k-fold boost": a cached ref
        # stays repairable through k subsequent single-leaf updates.
        scheme = WBox(TINY_CONFIG)
        lids = scheme.bulk_load(30)
        scheme.delete(lids[24])  # slack: later churn reclaims, never splits
        cache = CachedLabelStore(scheme, log_capacity=6)
        ref = cache.reference(lids[2])
        for _ in range(3):  # 3 churn rounds = 6 logged modifications
            scheme.delete(scheme.insert_before(lids[25]))
        value = cache.get(ref)
        assert value == scheme.lookup(lids[2])
        assert cache.counters.fallthrough_reads == 0
        assert cache.counters.replay_hits == 1

    def test_bbox_replay(self):
        scheme = BBox(TINY_CONFIG)
        lids = scheme.bulk_load(30)
        cache = CachedLabelStore(scheme, log_capacity=8)
        ref = cache.reference(lids[12])
        scheme.insert_before(lids[12])
        assert cache.get(ref) == scheme.lookup(lids[12])

    def test_ordinal_channel_reference(self):
        scheme = BBox(TINY_CONFIG, ordinal=True)
        lids = scheme.bulk_load(30)
        cache = CachedLabelStore(scheme, log_capacity=8)
        ref = cache.reference(lids[12], channel=ORDINAL_CHANNEL)
        assert ref.value == 12
        scheme.insert_before(lids[3])
        assert cache.get(ref) == 13  # replayed ordinal shift
        assert cache.counters.fallthrough_reads == 0

    def test_close_detaches_listener(self):
        scheme = WBox(TINY_CONFIG)
        lids = scheme.bulk_load(10)
        cache = CachedLabelStore(scheme, log_capacity=4)
        cache.close()
        scheme.insert_before(lids[5])
        assert len(cache.log) == 0

    def test_structure_invalidation_forces_refetch(self):
        scheme = BBox(TINY_CONFIG)
        lids = scheme.bulk_load(6)  # single full leaf
        cache = CachedLabelStore(scheme, log_capacity=32)
        ref = cache.reference(lids[5])
        for _ in range(10):  # forces splits and a root change
            scheme.insert_before(lids[3])
        assert cache.get(ref) == scheme.lookup(lids[5])
        assert cache.counters.fallthrough_reads >= 1


class TestPrefixBoundComparators:
    """Directed boundary cases for ``_at_least`` / ``_at_most``.

    The comparators short-circuit on the first component when it already
    decides the lexicographic order; these cases pin both the short-circuit
    branch (first components differ) and the fallthrough slice compare
    (shared first component, prefix bounds, empty tuples) against the
    original slice-only formulation.
    """

    @staticmethod
    def _slice_at_least(label, bound):
        if isinstance(label, tuple) and isinstance(bound, tuple):
            return label[: len(bound)] >= bound
        return label >= bound

    @staticmethod
    def _slice_at_most(label, bound):
        if isinstance(label, tuple) and isinstance(bound, tuple):
            return label[: len(bound)] <= bound
        return label <= bound

    def test_first_component_decides(self):
        # Later components must not matter once the first ones differ.
        assert _at_least((5, 0), (4, 9))
        assert not _at_least((3, 99, 99), (4, 0))
        assert _at_most((3, 99, 99), (4, 0))
        assert not _at_most((5, 0), (4, 9))

    def test_shared_first_component_falls_through(self):
        # slice is label[:3] == (4, 7), compared against (4, 6, 9)
        assert _at_least((4, 7), (4, 6, 9))
        assert not _at_least((4, 5), (4, 6))
        assert _at_most((4, 5), (4, 6))
        assert not _at_most((4, 7, 0), (4, 6))

    def test_prefix_label_counts_as_inside(self):
        # A label extending the bound is inside the bound on both sides.
        assert _at_least((4, 2, 7, 1), (4, 2))
        assert _at_most((4, 2, 7, 1), (4, 2))

    def test_empty_tuples(self):
        assert _at_least((), ()) and _at_most((), ())
        assert not _at_least((), (1,))
        assert _at_most((), (1,))
        assert _at_least((1,), ()) and _at_most((1,), ())

    def test_int_labels_unchanged(self):
        assert _at_least(7, 7) and _at_most(7, 7)
        assert _at_least(8, 7) and not _at_most(8, 7)

    def test_matches_slice_oracle_on_grid(self):
        values = [(), (0,), (1,), (0, 0), (0, 1), (1, 0), (1, 1),
                  (0, 1, 1), (1, 0, 2), (2,), (2, 0, 0)]
        for label in values:
            for bound in values:
                assert _at_least(label, bound) == self._slice_at_least(label, bound), (
                    label, bound)
                assert _at_most(label, bound) == self._slice_at_most(label, bound), (
                    label, bound)
