"""Workload runners and metrics: sequence semantics, cost accounting, and
the paper's qualitative orderings at miniature scale."""

import pytest

from repro import BBox, NaiveScheme, TINY_CONFIG, WBox
from repro.workloads import (
    run_concentrated,
    run_scattered,
    run_xmark_build,
    two_level_pairing,
)
from repro.workloads.metrics import amortized_cost, percentile, summarize
from benchmarks.plotting import ccdf, ccdf_at, geometric_thresholds


class TestMetrics:
    def test_amortized(self):
        assert amortized_cost([2, 4, 6]) == 4.0
        assert amortized_cost([]) == 0.0

    def test_ccdf_fractions(self):
        points = dict(ccdf([1, 1, 2, 3]))
        assert points[1] == 0.5  # half the ops cost more than 1
        assert points[2] == 0.25
        assert points[3] == 0.0

    def test_ccdf_monotone_nonincreasing(self):
        fractions = [fraction for _, fraction in ccdf([5, 1, 9, 9, 3, 2])]
        assert fractions == sorted(fractions, reverse=True)

    def test_ccdf_at_thresholds(self):
        points = dict(ccdf_at([1, 2, 3, 4], [0, 2, 10]))
        assert points[0] == 1.0
        assert points[2] == 0.5
        assert points[10] == 0.0

    def test_percentiles(self):
        costs = list(range(1, 101))
        assert percentile(costs, 0.5) == 50
        assert percentile(costs, 0.99) == 99
        assert percentile([], 0.5) == 0

    def test_summarize_keys(self):
        summary = summarize([1, 2, 3])
        assert summary["n"] == 3 and summary["mean"] == 2.0 and summary["max"] == 3

    def test_geometric_thresholds(self):
        assert geometric_thresholds(16) == [1, 2, 4, 8, 16]
        assert geometric_thresholds(0) == [1]


class TestPairing:
    def test_two_level_pairing_shape(self):
        pairing = two_level_pairing(3)
        assert pairing == [7, 2, 1, 4, 3, 6, 5, 0]

    def test_pairing_is_involution(self):
        pairing = two_level_pairing(10)
        assert all(pairing[pairing[i]] == i for i in range(len(pairing)))


class TestConcentrated:
    def test_counts_every_insert(self):
        result = run_concentrated(WBox(TINY_CONFIG), 50, 30)
        assert len(result.costs) == 30
        assert result.workload == "concentrated"
        assert result.final_labels == 2 * (50 + 1 + 30)

    def test_structure_consistent_afterwards(self):
        scheme = BBox(TINY_CONFIG)
        run_concentrated(scheme, 40, 60)
        scheme.check_invariants()

    def test_squeeze_shape(self):
        # The inserted siblings interleave around the center: verify via a
        # parallel document build that labels reflect the squeeze.
        scheme = WBox(TINY_CONFIG)
        result = run_concentrated(scheme, 30, 21)
        assert result.mean > 0


class TestScattered:
    def test_counts_every_insert(self):
        result = run_scattered(WBox(TINY_CONFIG), 60, 30)
        assert len(result.costs) == 30
        assert result.final_labels == 2 * (60 + 1 + 30)

    def test_rejects_oversubscription(self):
        with pytest.raises(ValueError):
            run_scattered(WBox(TINY_CONFIG), 10, 20)

    def test_naive_shines_when_scattered(self):
        # Figure 7's headline: spread inserts never exhaust gaps, so
        # naive-k (k >= 2) is near-constant.
        naive = run_scattered(NaiveScheme(4, TINY_CONFIG), 100, 50)
        assert naive.mean <= 4.0


class TestXMarkBuild:
    def test_priming_excluded(self):
        scheme = BBox(TINY_CONFIG)
        result = run_xmark_build(scheme, n_items=6, prime_fraction=0.5, seed=2)
        assert 0 < len(result.costs) < result.final_labels / 2
        scheme.check_invariants()

    def test_prime_fraction_validated(self):
        with pytest.raises(ValueError):
            run_xmark_build(BBox(TINY_CONFIG), 5, prime_fraction=1.0)

    def test_deterministic_document(self):
        a = run_xmark_build(BBox(TINY_CONFIG), 5, seed=9)
        b = run_xmark_build(BBox(TINY_CONFIG), 5, seed=9)
        assert a.costs == b.costs


class TestPaperShapes:
    """The qualitative results of Figures 5 and 7 at miniature scale."""

    BASE, INSERTS = 150, 80

    def test_concentrated_boxes_beat_naive(self):
        bbox = run_concentrated(BBox(TINY_CONFIG), self.BASE, self.INSERTS)
        wbox = run_concentrated(WBox(TINY_CONFIG), self.BASE, self.INSERTS)
        naive = run_concentrated(NaiveScheme(4, TINY_CONFIG), self.BASE, self.INSERTS)
        assert bbox.mean < naive.mean
        assert wbox.mean < naive.mean

    def test_concentrated_bbox_beats_wbox(self):
        bbox = run_concentrated(BBox(TINY_CONFIG), self.BASE, self.INSERTS)
        wbox = run_concentrated(WBox(TINY_CONFIG), self.BASE, self.INSERTS)
        assert bbox.mean < wbox.mean

    def test_scattered_is_kind_to_naive(self):
        concentrated = run_concentrated(NaiveScheme(4, TINY_CONFIG), self.BASE, self.INSERTS)
        scattered = run_scattered(NaiveScheme(4, TINY_CONFIG), self.BASE, self.INSERTS)
        assert scattered.mean < concentrated.mean / 3

    def test_naive_1_relabels_even_when_scattered(self):
        # Figure 7's exception: naive-1's gaps cannot absorb even one
        # insert each.
        naive1 = NaiveScheme(1, TINY_CONFIG)
        result = run_scattered(naive1, self.BASE, self.INSERTS)
        assert naive1.relabel_count > 0
        richer = NaiveScheme(4, TINY_CONFIG)
        richer_result = run_scattered(richer, self.BASE, self.INSERTS)
        assert result.mean > richer_result.mean
