"""The one stress driver (:func:`repro.workloads.run_stress`) at N = 1 and 2.

These pin the claims the deleted service benches made that hold on any
host (``bench_service_throughput``'s zero-fallthrough regime and its
insert-mode contrast); the sleep-bound reader-scaling ratio and the
per-commit-cost-dividing shard-scaling ratio are not claims and are gone.
"""

import pytest

from repro import BENCH_CONFIG, WBox
from repro.workloads import read_op_stream, run_stress

#: W-BOX schedules a global rebuild (invalidate_all -> fallthroughs) once a
#: shard's cumulative deletions reach its live-label count, so each shard's
#: chunk must outgrow the run's churn: <= duration / write_pause batches,
#: each deleting 2 * write_batch labels.
CHURN = dict(
    duration=0.5,
    readers=2,
    write_batch=8,
    group_size=16,
    log_capacity=65536,
    think_seconds=0.0005,
    write_pause=0.004,
    hot_labels=128,
)


@pytest.mark.parametrize("shards", [1, 2])
def test_churn_with_a_covering_log_never_falls_through(shards):
    """While the modification log covers the write window (churn mode, hot
    working set, generous log), no read reaches a latched BOX lookup:
    every read is served fresh or by log replay — on every shard."""
    schemes = [WBox(BENCH_CONFIG) for _ in range(shards)]
    result = run_stress(schemes, base_labels=4000 * shards, write_mode="churn", **CHURN)
    assert result.errors == []
    assert result.shards == shards and len(result.counters) == shards
    assert result.read_ops > 0 and all(ops > 0 for ops in result.write_ops)
    assert all(number > 0 for number in result.epoch_numbers), result.epoch_numbers
    for counters in result.counters:
        assert counters.fallthrough_reads == 0, counters
        assert counters.write_errors == 0, counters
    assert result.totals.repair_hit_ratio == 1.0
    assert result.totals.reads >= result.read_ops


def test_insert_mode_splits_force_fallthroughs_but_no_error():
    """The contrast: a growing document splits nodes, range invalidations
    outrun log replay, and some reads fall through — correctly."""
    result = run_stress(
        [WBox(BENCH_CONFIG)], base_labels=4000, write_mode="insert", **CHURN
    )
    assert result.errors == []
    assert result.totals.fallthrough_reads > 0
    assert result.totals.write_errors == 0
    assert result.epoch_numbers[0] > 0


def test_unknown_write_mode_and_empty_shard_are_rejected():
    with pytest.raises(ValueError, match="write_mode"):
        run_stress([WBox(BENCH_CONFIG)], write_mode="bogus")
    with pytest.raises(ValueError, match="empty"):
        run_stress([WBox(BENCH_CONFIG) for _ in range(3)], base_labels=2)


def test_read_op_stream_pairs_stay_on_one_shard():
    chunks = [[0, 2, 4, 6], [1, 3, 5]]
    ops = list(read_op_stream(chunks, 400, seed=3))
    assert ops == list(read_op_stream(chunks, 400, seed=3))
    assert {op[0] for op in ops} == {"lookup", "lookup_pair", "compare"}
    for _method, start, end in (op for op in ops if op[0] == "lookup_pair"):
        chunk = chunks[start % 2]
        assert end in chunk and chunk.index(end) == chunk.index(start) + 1
    assert any(a % 2 != b % 2 for op, a, b in (o for o in ops if o[0] == "compare"))
