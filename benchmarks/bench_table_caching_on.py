"""The "caching turned on" remark of Section 7.

The paper measures with main-memory caching off to expose full I/O costs,
but notes: "In practice, and as we have observed in experiments with
caching turned on, our structures perform better with caching, especially
because the root tends to be cached at all times."

We reproduce that observation: the same lookup workload against the same
structure, with the block store's cache off and on, under both replacement
policies (plain LRU and segmented LRU).  With even a small cache the B-BOX
root (and the hot LIDF blocks) stay resident, shaving the fixed levels off
every lookup; the hit-ratio columns show exactly how resident the working
set becomes.
"""

import random

import pytest

from repro import BBox, BoxConfig, WBox
from repro.storage import BlockStore
from repro.workloads import two_level_pairing

from benchmarks.conftest import SCALE, fmt, record_table

BLOCK_BYTES = 1024
CACHE_SIZES = [0, 8, 64, 1024]
CACHE_MODES = ["lru", "slru"]
LOOKUPS = 2000


def build(scheme_cls, cache_capacity: int, cache_mode: str = "lru"):
    config = BoxConfig(block_bytes=BLOCK_BYTES)
    store = BlockStore(config, cache_capacity=cache_capacity, cache_mode=cache_mode)
    scheme = scheme_cls(config, store=store)
    n_children = SCALE["base"] // 4
    lids = scheme.bulk_load(2 * (n_children + 1), two_level_pairing(n_children))
    return scheme, lids


def mean_lookup_io(scheme, lids) -> tuple[float, float]:
    """(mean I/Os per lookup, cache hit ratio) over a random lookup run."""
    rng = random.Random(9)
    scheme.stats.reset()
    sample = [rng.choice(lids) for _ in range(LOOKUPS)]
    before = scheme.stats.snapshot()
    for lid in sample:
        scheme.lookup(lid)
    mean = (scheme.stats.snapshot() - before).total / LOOKUPS
    return mean, scheme.stats.hit_ratio


@pytest.mark.parametrize("cache_capacity", CACHE_SIZES)
@pytest.mark.parametrize("scheme_cls", [WBox, BBox], ids=["W-BOX", "B-BOX"])
def test_lookup_with_cache(benchmark, scheme_cls, cache_capacity):
    def run():
        scheme, lids = build(scheme_cls, cache_capacity)
        return mean_lookup_io(scheme, lids)

    mean, hit_ratio = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info["mean_lookup_io"] = mean
    benchmark.extra_info["hit_ratio"] = hit_ratio
    assert mean >= 0
    assert 0.0 <= hit_ratio <= 1.0


@pytest.mark.parametrize("scheme_cls", [WBox, BBox], ids=["W-BOX", "B-BOX"])
def test_lookup_with_slru_cache(benchmark, scheme_cls):
    """SLRU serves the same hot set as LRU on this workload (the hot blocks
    get promoted to the protected segment and stay there)."""

    def run():
        scheme, lids = build(scheme_cls, 64, cache_mode="slru")
        return mean_lookup_io(scheme, lids)

    mean, hit_ratio = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info["mean_lookup_io"] = mean
    benchmark.extra_info["hit_ratio"] = hit_ratio
    assert mean >= 0
    assert hit_ratio > 0.0


def test_caching_on_table(benchmark):
    def compute():
        rows = []
        outcome = {}
        for scheme_cls, name in ((WBox, "W-BOX"), (BBox, "B-BOX")):
            for mode in CACHE_MODES:
                row = [name, mode]
                hit_ratios = {}
                for cache_capacity in CACHE_SIZES:
                    scheme, lids = build(scheme_cls, cache_capacity, mode)
                    mean, hit_ratio = mean_lookup_io(scheme, lids)
                    outcome[(name, mode, cache_capacity)] = (mean, hit_ratio)
                    hit_ratios[cache_capacity] = hit_ratio
                    row.append(fmt(mean))
                row.append(fmt(100 * hit_ratios[64], 1))
                row.append(fmt(100 * hit_ratios[1024], 1))
                rows.append(row)
        return rows, outcome

    rows, outcome = benchmark.pedantic(compute, rounds=1, iterations=1)
    record_table(
        "table_caching_on",
        'Section 7 "caching turned on": mean block I/Os per random lookup '
        "vs. cache capacity (blocks) and replacement policy",
        ["scheme", "policy"]
        + [f"cache={c}" for c in CACHE_SIZES]
        + ["hit% @64", "hit% @1024"],
        rows,
        extra={
            f"{name}/{mode}/cache={capacity}": {
                "mean_lookup_io": mean,
                "hit_ratio": hit_ratio,
            }
            for (name, mode, capacity), (mean, hit_ratio) in outcome.items()
        },
    )
    # Caching only helps, and it helps B-BOX more (its fixed root/upper
    # levels become resident, removing the height penalty).
    for mode in CACHE_MODES:
        for name in ("W-BOX", "B-BOX"):
            assert outcome[(name, mode, 1024)][0] <= outcome[(name, mode, 0)][0]
        bbox_saving = outcome[("B-BOX", mode, 0)][0] - outcome[("B-BOX", mode, 64)][0]
        wbox_saving = outcome[("W-BOX", mode, 0)][0] - outcome[("W-BOX", mode, 64)][0]
        assert bbox_saving >= wbox_saving
    # Hit ratios grow with capacity, and a big-enough cache serves nearly
    # everything for B-BOX (small block count).
    for name, mode in (("W-BOX", "lru"), ("B-BOX", "lru"), ("B-BOX", "slru")):
        assert outcome[(name, mode, 1024)][1] >= outcome[(name, mode, 8)][1]
