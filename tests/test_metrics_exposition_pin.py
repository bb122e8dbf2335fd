"""Pin of the ``repro_io_*`` / ``repro_service_*`` metrics exposition.

A fixed scenario (a one-shard and a two-shard ``ShardedLabelService``
over small cached W-BOX stores: cold lookups, a repeat, one insert, a
read at the old pin, a refresh and more reads) runs in a fresh
interpreter, so no instance left alive by another test joins the sums.
The rendered families must match the golden text line for line: every
sample name, label set, kind (the ``# TYPE`` lines) and value.  Each
service's ``describe()`` is pinned the same way, keys and values.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

SCENARIO = """
import json

from repro import ShardedLabelService, WBox
from repro.config import TINY_CONFIG
from repro.core.batch import BatchOp
from repro.obs import get_registry
from repro.service.sharded import bulk_load_sharded
from repro.storage import BlockStore


def drive(n_shards):
    schemes = [
        WBox(TINY_CONFIG, store=BlockStore(TINY_CONFIG, cache_capacity=4))
        for _ in range(n_shards)
    ]
    glids = bulk_load_sharded(schemes, 12)
    service = ShardedLabelService(schemes)
    with service:
        session = service.session()
        for glid in glids[:4]:
            session.lookup(glid)
        session.lookup(glids[0])
        service.apply_ops_sync([BatchOp("insert_before", (glids[1],))])
        session.lookup(glids[0])
        session.refresh()
        session.lookup(glids[0])
        session.lookup(glids[2])
        session.lookup(glids[-1])
        session.lookup(glids[-1])
    return service


services = [drive(1), drive(2)]
print(get_registry().render_prometheus(), end="")
print("DESCRIBE")
for service in services:
    print(json.dumps(service.describe(), sort_keys=True))
"""

GOLDEN_EXPOSITION = """\
# TYPE repro_io_allocs_total counter
repro_io_allocs_total 7
repro_io_allocs_total{shard="shard0"} 3
repro_io_allocs_total{shard="shard1"} 3
# TYPE repro_io_cache_hit_ratio gauge
repro_io_cache_hit_ratio 0.722222
repro_io_cache_hit_ratio{shard="shard0"} 1
repro_io_cache_hit_ratio{shard="shard1"} 1
# TYPE repro_io_cache_hits_total counter
repro_io_cache_hits_total 13
repro_io_cache_hits_total{shard="shard0"} 10
repro_io_cache_hits_total{shard="shard1"} 2
# TYPE repro_io_cache_misses_total counter
repro_io_cache_misses_total 5
repro_io_cache_misses_total{shard="shard0"} 0
repro_io_cache_misses_total{shard="shard1"} 0
# TYPE repro_io_frees_total counter
repro_io_frees_total 1
repro_io_frees_total{shard="shard0"} 1
repro_io_frees_total{shard="shard1"} 1
# TYPE repro_io_instances gauge
repro_io_instances 1
repro_io_instances{shard="shard0"} 1
repro_io_instances{shard="shard1"} 1
# TYPE repro_io_reads_total counter
repro_io_reads_total 5
repro_io_reads_total{shard="shard0"} 0
repro_io_reads_total{shard="shard1"} 0
# TYPE repro_io_writes_total counter
repro_io_writes_total 11
repro_io_writes_total{shard="shard0"} 5
repro_io_writes_total{shard="shard1"} 3
# TYPE repro_service_backpressure_waits_total counter
repro_service_backpressure_waits_total 0
repro_service_backpressure_waits_total{shard="shard0"} 0
repro_service_backpressure_waits_total{shard="shard1"} 0
# TYPE repro_service_batches_applied_total counter
repro_service_batches_applied_total 1
repro_service_batches_applied_total{shard="shard0"} 1
repro_service_batches_applied_total{shard="shard1"} 0
# TYPE repro_service_degradations_total counter
repro_service_degradations_total 0
repro_service_degradations_total{shard="shard0"} 0
repro_service_degradations_total{shard="shard1"} 0
# TYPE repro_service_degraded_read_rejects_total counter
repro_service_degraded_read_rejects_total 0
repro_service_degraded_read_rejects_total{shard="shard0"} 0
repro_service_degraded_read_rejects_total{shard="shard1"} 0
# TYPE repro_service_degraded_write_rejects_total counter
repro_service_degraded_write_rejects_total 0
repro_service_degraded_write_rejects_total{shard="shard0"} 0
repro_service_degraded_write_rejects_total{shard="shard1"} 0
# TYPE repro_service_epoch_lag_max gauge
repro_service_epoch_lag_max 1
repro_service_epoch_lag_max{shard="shard0"} 1
repro_service_epoch_lag_max{shard="shard1"} 0
# TYPE repro_service_epoch_lag_mean gauge
repro_service_epoch_lag_mean 0.1
repro_service_epoch_lag_mean{shard="shard0"} 0.125
repro_service_epoch_lag_mean{shard="shard1"} 0
# TYPE repro_service_epochs_published_total counter
repro_service_epochs_published_total 1
repro_service_epochs_published_total{shard="shard0"} 1
repro_service_epochs_published_total{shard="shard1"} 0
# TYPE repro_service_fallthrough_reads_total counter
repro_service_fallthrough_reads_total 7
repro_service_fallthrough_reads_total{shard="shard0"} 4
repro_service_fallthrough_reads_total{shard="shard1"} 1
# TYPE repro_service_fresh_hits_total counter
repro_service_fresh_hits_total 3
repro_service_fresh_hits_total{shard="shard0"} 2
repro_service_fresh_hits_total{shard="shard1"} 1
# TYPE repro_service_ops_applied_total counter
repro_service_ops_applied_total 1
repro_service_ops_applied_total{shard="shard0"} 1
repro_service_ops_applied_total{shard="shard1"} 0
# TYPE repro_service_reads_total counter
repro_service_reads_total 10
repro_service_reads_total{shard="shard0"} 8
repro_service_reads_total{shard="shard1"} 2
# TYPE repro_service_repair_hit_ratio gauge
repro_service_repair_hit_ratio 0.3
repro_service_repair_hit_ratio{shard="shard0"} 0.5
repro_service_repair_hit_ratio{shard="shard1"} 0.5
# TYPE repro_service_replay_hits_total counter
repro_service_replay_hits_total 0
repro_service_replay_hits_total{shard="shard0"} 2
repro_service_replay_hits_total{shard="shard1"} 0
# TYPE repro_service_write_errors_total counter
repro_service_write_errors_total 0
repro_service_write_errors_total{shard="shard0"} 0
repro_service_write_errors_total{shard="shard1"} 0
# TYPE repro_service_write_merges_total counter
repro_service_write_merges_total 0
repro_service_write_merges_total{shard="shard0"} 0
repro_service_write_merges_total{shard="shard1"} 0
# TYPE repro_service_write_retries_total counter
repro_service_write_retries_total 0
repro_service_write_retries_total{shard="shard0"} 0
repro_service_write_retries_total{shard="shard1"} 0
"""

#: Every per-shard ``describe()`` key; the rows below override the counts.
IDLE_SHARD = {
    "backpressure_waits": 0,
    "degraded_read_rejects": 0,
    "degraded_reason": None,
    "degraded_write_rejects": 0,
    "epoch": 0,
    "epochs_published": 0,
    "fallthrough_reads": 0,
    "log_capacity": 1024,
    "max_epoch_lag": 0,
    "queue_depth": 0,
    "reads": 0,
    "repair_hit_ratio": 0.0,
    "scheme": "W-BOX",
    "state": "running",
    "write_merges": 0,
    "write_retries": 0,
}
WRITTEN = dict(epoch=1, epochs_published=1, max_epoch_lag=1)

GOLDEN_DESCRIBE = [
    {
        "degraded_shards": [],
        "epoch_vector": [1],
        "n_shards": 1,
        "queue_depth": 0,
        "shards": [
            {**IDLE_SHARD, **WRITTEN, "fallthrough_reads": 7, "reads": 10, "repair_hit_ratio": 0.3},
        ],
        "state": "running",
    },
    {
        "degraded_shards": [],
        "epoch_vector": [1, 0],
        "n_shards": 2,
        "queue_depth": 0,
        "shards": [
            {**IDLE_SHARD, **WRITTEN, "fallthrough_reads": 4, "reads": 8, "repair_hit_ratio": 0.5},
            {**IDLE_SHARD, "fallthrough_reads": 1, "reads": 2, "repair_hit_ratio": 0.5},
        ],
        "state": "running",
    },
]


def _families(line: str) -> bool:
    name = line.split()[2] if line.startswith("#") else line.split("{")[0].split()[0]
    return name.startswith(("repro_io_", "repro_service_"))


def run_scenario() -> tuple[str, list[dict]]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    completed = subprocess.run(
        [sys.executable, "-c", SCENARIO],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
    exposition, described = completed.stdout.split("DESCRIBE\n")
    lines = [line for line in exposition.splitlines() if _families(line)]
    return "\n".join(lines) + "\n", [json.loads(row) for row in described.splitlines()]


def test_exposition_and_describe_match_the_golden():
    exposition, described = run_scenario()
    assert exposition == GOLDEN_EXPOSITION
    assert described == GOLDEN_DESCRIBE
