"""In-memory order maintenance (Bender-style tag ranges)."""

import random

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from benchmarks.listorder import OrderList
from repro.errors import LabelingError


class TestBasics:
    def test_empty(self):
        ol = OrderList()
        assert len(ol) == 0

    def test_first_and_last(self):
        ol = OrderList()
        a = ol.insert_first()
        b = ol.insert_last()
        c = ol.insert_first()
        assert ol.items_in_order() == [c, a, b]

    def test_insert_before_and_after(self):
        ol = OrderList()
        a = ol.insert_first()
        b = ol.insert_after(a)
        c = ol.insert_before(b)
        d = ol.insert_after(b)
        assert ol.items_in_order() == [a, c, b, d]

    def test_compare(self):
        ol = OrderList()
        a = ol.insert_first()
        b = ol.insert_after(a)
        assert ol.compare(a, b) == -1
        assert ol.compare(b, a) == 1
        assert ol.compare(a, a) == 0

    def test_delete(self):
        ol = OrderList()
        a = ol.insert_first()
        b = ol.insert_after(a)
        ol.delete(a)
        assert ol.items_in_order() == [b]
        with pytest.raises((LabelingError, KeyError)):
            ol.compare(a, b)

    def test_tiny_universe_rejected(self):
        with pytest.raises(LabelingError):
            OrderList(tag_bits=2)


class TestRelabeling:
    def test_adversarial_inserts_trigger_relabeling(self):
        ol = OrderList(tag_bits=24)  # capacity (2*TAU)^24 ≈ 16.8k items
        anchor = ol.insert_first()
        for _ in range(2000):
            ol.insert_before(anchor)
        assert ol.relabel_passes > 0
        items = ol.items_in_order()
        assert items[-1] == anchor
        tags = [ol.tag(item) for item in items]
        assert tags == sorted(tags)
        assert len(set(tags)) == len(tags)

    def test_amortized_relabeling_is_logarithmic(self):
        # Dietz's bound: O(log N) tags relabeled per insertion, amortized.
        import math

        ol = OrderList(tag_bits=24)
        anchor = ol.insert_first()
        inserts = 4000
        for index in range(inserts):
            new = ol.insert_before(anchor)
            if index % 2 == 0:
                anchor = new
        per_insert = ol.relabeled_items / inserts
        assert per_insert < 8 * math.log2(inserts)

    def test_universe_exhaustion_raises(self):
        ol = OrderList(tag_bits=4)
        anchor = ol.insert_first()
        with pytest.raises(LabelingError):
            for _ in range(100):
                ol.insert_before(anchor)

    def test_relabeling_far_cheaper_than_naive(self):
        # The contrast Section 2 draws: the naive scheme relabels
        # everything, Bender-style windows relabel O(log N) amortized.
        size = 3000
        ol = OrderList(tag_bits=24)
        anchor = ol.insert_first()
        for _ in range(size):
            ol.insert_before(anchor)
        assert ol.relabeled_items < size * 24  # not Theta(N) per insert


class TestRandomized:
    @given(
        operations=st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 10_000)),
            min_size=1,
            max_size=200,
        )
    )
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_matches_list_oracle(self, operations):
        ol = OrderList(tag_bits=32)
        oracle: list[int] = []
        for action, position in operations:
            if action == 0 or not oracle:
                item = ol.insert_first()
                oracle.insert(0, item)
            elif action == 1:
                reference = oracle[position % len(oracle)]
                item = ol.insert_before(reference)
                oracle.insert(oracle.index(reference), item)
            elif action == 2:
                reference = oracle[position % len(oracle)]
                item = ol.insert_after(reference)
                oracle.insert(oracle.index(reference) + 1, item)
            else:
                victim = oracle.pop(position % len(oracle))
                ol.delete(victim)
        assert ol.items_in_order() == oracle
        for _ in range(20):
            if len(oracle) >= 2:
                rng = random.Random(len(oracle))
                i, j = rng.randrange(len(oracle)), rng.randrange(len(oracle))
                expected = (i > j) - (i < j)
                assert ol.compare(oracle[i], oracle[j]) == expected
