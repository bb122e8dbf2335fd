"""Golden I/O-count regression: the storage-stack refactor must not move
a single counted I/O.

``tests/data/golden_io_smoke.json`` was captured by running the fig5/fig8
workloads at smoke scale on the pre-refactor (monolithic ``BlockStore``)
code.  These tests rerun the identical workloads and assert *exact*
equality — reads, writes, allocs and frees — first on the default memory
backend, then on a file backend, which pins the central claim of the
layered stack: logical I/O counts are a property of the algorithms, not
of the backend.
"""

import json
import os

import pytest

from repro import BBox, BoxConfig, NaiveScheme, WBox, WBoxO
from repro.persist import checkpoint_scheme
from repro.storage import BlockStore, FileBackend
from repro.workloads import run_concentrated, run_xmark_build

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "data", "golden_io_smoke.json")

with open(GOLDEN_PATH) as _handle:
    GOLDEN = json.load(_handle)

CONFIG = BoxConfig(block_bytes=GOLDEN["scale"]["block_bytes"])

FACTORIES = {
    "W-BOX": lambda store=None: WBox(CONFIG, store=store),
    "W-BOX-O": lambda store=None: WBoxO(CONFIG, store=store),
    "B-BOX": lambda store=None: BBox(CONFIG, store=store),
    "B-BOX-O": lambda store=None: BBox(CONFIG, store=store, ordinal=True),
    "naive-16": lambda store=None: NaiveScheme(16, CONFIG, store=store),
}


def _run(workload, scheme):
    scale = GOLDEN["scale"]
    if workload == "concentrated":
        return run_concentrated(scheme, scale["base"], scale["inserts"])
    return run_xmark_build(scheme, scale["xmark_items"], prime_fraction=0.6)


def _observed(workload, result, scheme):
    return {
        "bulk_load_io": result.bulk_load_io,
        "total_io": result.total,
        "reads": scheme.stats.reads,
        "writes": scheme.stats.writes,
        "allocs": scheme.stats.allocs,
        "frees": scheme.stats.frees,
    }


@pytest.mark.parametrize("workload", sorted(GOLDEN["workloads"]))
@pytest.mark.parametrize("name", sorted(FACTORIES))
def test_memory_backend_counts_match_pre_refactor(workload, name):
    scheme = FACTORIES[name]()
    result = _run(workload, scheme)
    assert _observed(workload, result, scheme) == GOLDEN["workloads"][workload][name]


@pytest.mark.parametrize("backend_cls", [FileBackend])  # keeps the test ids stable
@pytest.mark.parametrize("name", ["W-BOX", "B-BOX", "naive-16"])
def test_file_backend_counts_identical(tmp_path, name, backend_cls):
    """The same workload on a real page file counts the same I/Os."""
    backend = backend_cls(
        str(tmp_path / "golden.pages"),
    )
    scheme = FACTORIES[name](store=BlockStore(CONFIG, backend=backend))
    checkpoint_scheme(scheme)
    result = _run("concentrated", scheme)
    assert _observed("concentrated", result, scheme) == (
        GOLDEN["workloads"]["concentrated"][name]
    )
    backend.checkpoint()  # commits only log; pages go out with a checkpoint
    assert backend.commits > 0 and backend.page_writes > 0
    backend.close()
