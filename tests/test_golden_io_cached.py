"""Golden I/O counts with the block cache turned on.

``tests/test_golden_io.py`` pins counted I/O with the cache off, where
only the *set* of blocks an operation touches matters.  With a cache, the
order in which an operation first touches its blocks decides what the LRU
(or SLRU) evicts, so reads, writes and the hit/miss split also pin that
first-touch order.  ``tests/data/golden_io_cached.json`` holds the counts
for the four BOX variants on the two golden workloads at two cache sizes
under both replacement policies; the tests assert exact equality.

Regenerate only for a deliberate change of the algorithms' block-touch
order::

    PYTHONPATH=src python -m tests.test_golden_io_cached
"""

import json
import os

import pytest

from repro import BBox, BoxConfig, WBox, WBoxO
from repro.storage import BlockStore
from repro.workloads import run_concentrated, run_xmark_build

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "data", "golden_io_cached.json")

#: The workload scale of ``golden_io_smoke.json``.
SCALE = {"base": 2000, "inserts": 200, "xmark_items": 30, "block_bytes": 1024}
CONFIG = BoxConfig(block_bytes=SCALE["block_bytes"])
CACHE_CAPACITIES = (2, 8)
CACHE_MODES = ("lru", "slru")

FACTORIES = {
    "W-BOX": lambda store: WBox(CONFIG, store=store),
    "W-BOX-O": lambda store: WBoxO(CONFIG, store=store),
    "B-BOX": lambda store: BBox(CONFIG, store=store),
    "B-BOX-O": lambda store: BBox(CONFIG, store=store, ordinal=True),
}
WORKLOADS = ("concentrated", "xmark")


def _case(workload: str, name: str, mode: str, capacity: int) -> str:
    return f"{workload}/{name}/{mode}/{capacity}"


def observe(workload: str, name: str, mode: str, capacity: int) -> dict:
    store = BlockStore(CONFIG, cache_capacity=capacity, cache_mode=mode)
    scheme = FACTORIES[name](store)
    if workload == "concentrated":
        result = run_concentrated(scheme, SCALE["base"], SCALE["inserts"])
    else:
        result = run_xmark_build(scheme, SCALE["xmark_items"], prime_fraction=0.6)
    stats = scheme.stats
    return {
        "total_io": result.total,
        "reads": stats.reads,
        "writes": stats.writes,
        "cache_hits": stats.cache_hits,
        "cache_misses": stats.cache_misses,
    }


CASES = [
    (workload, name, mode, capacity)
    for workload in WORKLOADS
    for name in FACTORIES
    for mode in CACHE_MODES
    for capacity in CACHE_CAPACITIES
]


@pytest.fixture(scope="module")
def golden() -> dict:
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)


@pytest.mark.parametrize(("workload", "name", "mode", "capacity"), CASES)
def test_cached_counts_match_golden(golden, workload, name, mode, capacity):
    expected = golden[_case(workload, name, mode, capacity)]
    assert observe(workload, name, mode, capacity) == expected


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(_case(*case) for case in CASES)


if __name__ == "__main__":
    table = {_case(*case): observe(*case) for case in CASES}
    with open(GOLDEN_PATH, "w") as handle:
        json.dump(table, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(table)} cases to {GOLDEN_PATH}")
