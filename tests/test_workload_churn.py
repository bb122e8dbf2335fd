"""The mixed insert/delete churn workload runner."""

import pytest

from repro import BBox, TINY_CONFIG, WBox
from benchmarks.churn import run_churn


class TestRunChurn:
    def test_records_every_operation(self):
        result = run_churn(WBox(TINY_CONFIG), base_elements=60, operations=120, seed=2)
        assert len(result.costs) == 120
        assert result.workload == "churn"
        assert all(cost >= 1 for cost in result.costs)

    def test_deterministic_for_seed(self):
        a = run_churn(BBox(TINY_CONFIG), 50, 100, seed=5)
        b = run_churn(BBox(TINY_CONFIG), 50, 100, seed=5)
        assert a.costs == b.costs

    def test_structure_clean_afterwards(self):
        scheme = BBox(TINY_CONFIG)
        run_churn(scheme, 80, 300, seed=3)
        scheme.check_invariants()

    def test_population_floor_respected(self):
        # Deletes stop when the population drops to a quarter of the base.
        scheme = WBox(TINY_CONFIG)
        result = run_churn(scheme, 40, 400, delete_fraction=0.95, seed=4)
        assert scheme.label_count() >= 2 * (40 // 4)

    def test_delete_fraction_validated(self):
        with pytest.raises(ValueError):
            run_churn(WBox(TINY_CONFIG), 10, 10, delete_fraction=1.0)

    def test_insert_only_churn_grows(self):
        scheme = WBox(TINY_CONFIG)
        result = run_churn(scheme, 30, 100, delete_fraction=0.0, seed=6)
        assert result.final_labels == 2 * (30 + 1 + 100)

    def test_wbox_deletes_stay_cheap_under_churn(self):
        # Theorem 4.6's O(1) amortized delete, observed over a long trace.
        scheme = WBox(TINY_CONFIG)
        result = run_churn(scheme, 100, 600, seed=7)
        assert result.mean < 25
