"""Group-commit batch engine: I/O and wall-clock vs. per-op execution.

Not a paper figure — this measures the repo's batch execution engine
(:class:`repro.core.batch.BatchExecutor`) on the paper's concentrated
insertion sequence, the workload where batching should shine: consecutive
inserts land on the same few blocks, so a group that commits once reads and
writes each of those blocks once instead of once per insert.

Expected shape: amortized I/O per insert drops steeply with group size
(every scheme's group-of-64 cost is a small fraction of its per-op cost),
and the scattered sequence — anchors spread over the whole document —
benefits far less, because locality grouping correctly cuts groups early.
"""

import pytest

from benchmarks.conftest import SCALE, fmt, get_workload, record_table, scheme_factories
from repro.workloads import run_concentrated, run_scattered

SCHEMES = ["W-BOX", "W-BOX-O", "B-BOX", "B-BOX-O"]
GROUP_SIZES = [16, 64, 256]

_batched_cache: dict[tuple[str, int], object] = {}


def get_batched(scheme_name: str, group_size: int):
    key = (scheme_name, group_size)
    if key not in _batched_cache:
        scheme = scheme_factories()[scheme_name]()
        _batched_cache[key] = run_concentrated(
            scheme, SCALE["base"], SCALE["inserts"], group_size=group_size
        )
    return _batched_cache[key]


@pytest.mark.parametrize("group_size", GROUP_SIZES)
@pytest.mark.parametrize("scheme_name", SCHEMES)
def test_batched_concentrated(benchmark, scheme_name, group_size):
    benchmark.pedantic(
        lambda: get_batched(scheme_name, group_size), rounds=1, iterations=1
    )
    result = get_batched(scheme_name, group_size)
    benchmark.extra_info["amortized_io_per_op"] = result.mean
    assert result.op_count == SCALE["inserts"]
    assert result.mean > 0


def test_batch_throughput_table(benchmark):
    def compute():
        rows = []
        extra = {}
        for name in SCHEMES:
            per_op = get_workload("concentrated", name)[1]
            row = [name, fmt(per_op.mean)]
            extra[name] = {
                "per_op_mean_io": per_op.mean,
                "per_op_wall_seconds": per_op.wall_seconds,
            }
            for group_size in GROUP_SIZES:
                batched = get_batched(name, group_size)
                row.append(fmt(batched.mean))
                extra[name][f"batched_{group_size}_mean_io"] = batched.mean
                extra[name][f"batched_{group_size}_groups"] = batched.group_count
                extra[name][f"batched_{group_size}_wall_seconds"] = batched.wall_seconds
            at64 = get_batched(name, 64)
            saving = 1 - at64.total / per_op.total if per_op.total else 0.0
            row.append(fmt(100 * saving, 1))
            row.append(fmt(at64.wall_seconds, 3))
            extra[name]["saving_at_64"] = saving
            rows.append(row)
        return rows, extra

    rows, extra = benchmark.pedantic(compute, rounds=1, iterations=1)
    record_table(
        "batch_throughput",
        "Group-commit batching: amortized block I/Os per element insertion, "
        "concentrated sequence, vs. commit group size",
        ["scheme", "per-op"]
        + [f"group={g}" for g in GROUP_SIZES]
        + ["saving% @64", "wall s @64"],
        rows,
        extra=extra,
    )
    for name in SCHEMES:
        # The acceptance bar: batching at group size >= 64 saves at least a
        # quarter of the counted I/O on the concentrated sequence.
        assert extra[name]["saving_at_64"] >= 0.25, (name, extra[name]["saving_at_64"])
        # Bigger groups never cost more I/O (coalescing is monotone here).
        assert extra[name]["batched_256_mean_io"] <= extra[name]["batched_16_mean_io"]


def test_scattered_batching_saves_less():
    """Locality grouping cuts groups early on scattered anchors, so the
    savings are real but far smaller than under concentration."""
    name = "B-BOX"
    concentrated_per_op = get_workload("concentrated", name)[1]
    concentrated_batched = get_batched(name, 64)
    scheme = scheme_factories()[name]()
    inserts = min(SCALE["inserts"], SCALE["base"])
    scattered_batched = run_scattered(
        scheme, SCALE["base"], inserts, group_size=64
    )
    scattered_per_op = get_workload("scattered", name)[1]
    concentrated_saving = 1 - concentrated_batched.total / concentrated_per_op.total
    scattered_saving = 1 - scattered_batched.total / scattered_per_op.total
    assert concentrated_saving > scattered_saving
