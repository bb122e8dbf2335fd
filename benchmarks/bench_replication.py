"""Replication shipping throughput, follower lag, and read offload.

Three questions about the WAL-shipping replication path, answered with a
real socket between primary and follower:

* **Ship+apply throughput** — a file-backed primary takes a write burst
  while a follower streams its WAL; how many committed transactions per
  second does the follower persist, apply, and publish, and how far
  behind (bytes) does it fall at peak?
* **Catch-up** — after the burst stops, how long until the follower's
  lag gauges read zero?
* **Read offload** — closed-loop lookup throughput against replica read
  servers: the primary alone, then one follower, then two followers
  round-robin.  (All endpoints share this process's GIL, so the scaling
  column measures protocol + session cost, not multi-core speedup.)

Every sampled read is verified against the primary — a benchmark run
doubles as a twin-oracle pass.  Regression gate: with
``REPRO_BENCH_GATE=1`` the measured apply throughput is compared against
the committed ``BENCH_replication.json`` (same scale only); falling
below 60% of the committed value fails the run.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
import threading
import time

from benchmarks.conftest import RESULTS_DIR, SCALE_NAME, fmt, record_table
from repro.config import BoxConfig
from repro.core import BatchOp
from repro.net.client import NetClient
from repro.net.server import run_server
from repro.persist import create_store
from repro.repl import (
    Follower,
    annotate_commits_with_epoch,
    checkpoint_service,
    rotate_service_wal,
)
from repro.service import ShardedLabelService

REPL_SCALE = {
    # ``base`` bulk-loaded labels; ``writes`` burst inserts; ``rotate_every``
    # inserts per WAL rotation (segment granularity under load);
    # ``read_seconds`` closed-loop read measurement per endpoint set.
    "smoke": dict(base=500, writes=120, rotate_every=40, read_seconds=0.5,
                  read_threads=2),
    "small": dict(base=5_000, writes=800, rotate_every=100, read_seconds=2.0,
                  read_threads=4),
    "medium": dict(base=20_000, writes=2_500, rotate_every=200, read_seconds=4.0,
                   read_threads=4),
}[SCALE_NAME]

BENCH_CONFIG = BoxConfig(block_bytes=1024)
LOOKUP_BATCH = 8
GATE_FLOOR = 0.60  # measured apply throughput below 60% of committed fails

_memo: dict | None = None


# ---------------------------------------------------------------------------
# harness
# ---------------------------------------------------------------------------


def _serve(service) -> tuple[dict, threading.Thread]:
    ready = threading.Event()
    holder: dict = {}
    thread = threading.Thread(
        target=run_server,
        args=(service,),
        kwargs={"ready": ready, "holder": holder},
        daemon=True,
    )
    thread.start()
    assert ready.wait(10)
    return holder, thread


def _make_primary(directory: str, base: int):
    (scheme,), lids = create_store(
        os.path.join(directory, "primary"),
        "wbox",
        config=BENCH_CONFIG,
        populate=lambda schemes: schemes[0].bulk_load(base, [i ^ 1 for i in range(base)]),
    )
    service = ShardedLabelService([scheme]).start()
    annotate_commits_with_epoch(service)
    checkpoint_service(service)
    return service, lids


def _drive_writes(service, lids, count, rotate_every, lag_samples, shard):
    """The write burst: single-op tickets so every insert is one committed
    transaction (the per-transaction shipping cost, not group-commit
    batching, is what the follower amortizes)."""
    for index in range(count):
        anchor = lids[(7 * index) % len(lids)]
        ticket = service.submit_ops([BatchOp("insert_before", (anchor,))])
        lids.append(ticket.wait(30).results[0])
        if index % rotate_every == rotate_every - 1:
            rotate_service_wal(service)
        if index % 10 == 9:
            lag_samples.append(shard.lag_bytes)


def _await_caught_up(follower, service, deadline_s=120.0) -> float:
    """Seconds from call until every shard's applied epoch matches the
    primary and the lag gauges read zero."""
    start = time.perf_counter()
    target = service.current_epoch_vector.numbers[0]
    deadline = start + deadline_s
    while time.perf_counter() < deadline:
        shard = follower.shards[0]
        # A rotation's metadata-only commit is stamped one epoch past what
        # the service publishes, so the applied position can legitimately
        # sit *ahead* of the target — require at-least, not equality.
        if (
            shard.position_epoch is not None
            and shard.position_epoch >= target
            and shard.lag_bytes == 0
        ):
            return time.perf_counter() - start
        time.sleep(0.002)
    raise TimeoutError("follower never caught up; lag stuck")


def _read_throughput(ports, lids, seconds, threads, oracle) -> tuple[float, int]:
    """Closed-loop batched lookups round-robin over ``ports``; returns
    (lookups/s, verified) and checks every response against the oracle."""
    clients = [NetClient("127.0.0.1", port) for port in ports]
    stop = time.perf_counter() + seconds
    counts = [0] * threads
    verified = [0] * threads
    errors: list[str] = []

    def worker(me: int) -> None:
        rng_index = me
        while time.perf_counter() < stop:
            client = clients[rng_index % len(clients)]
            batch = [
                lids[(rng_index * LOOKUP_BATCH + j) % len(lids)]
                for j in range(LOOKUP_BATCH)
            ]
            got = client.lookup(batch)
            expected = [oracle[lid] for lid in batch]
            if got != expected:
                errors.append(f"lookup mismatch at batch {rng_index}")
                return
            counts[me] += LOOKUP_BATCH
            verified[me] += LOOKUP_BATCH
            rng_index += threads

    workers = [threading.Thread(target=worker, args=(i,)) for i in range(threads)]
    begin = time.perf_counter()
    for thread in workers:
        thread.start()
    for thread in workers:
        thread.join(seconds + 30)
    elapsed = time.perf_counter() - begin
    for client in clients:
        client.close()
    assert errors == [], errors[0]
    return sum(counts) / elapsed, sum(verified)


# ---------------------------------------------------------------------------
# the experiment
# ---------------------------------------------------------------------------


def _results() -> dict:
    global _memo
    if _memo is not None:
        return _memo
    directory = tempfile.mkdtemp(prefix="repro-bench-repl-")
    service = None
    followers: list[Follower] = []
    servers: list[tuple[dict, threading.Thread]] = []
    try:
        service, lids = _make_primary(directory, REPL_SCALE["base"])
        holder, thread = _serve(service)
        servers.append((holder, thread))
        port = holder["server"].port

        bootstrap_begin = time.perf_counter()
        follower = Follower(
            "127.0.0.1", port, os.path.join(directory, "replica-0"),
            poll_interval=0.002,
        ).connect()
        follower.catch_up()
        bootstrap_s = time.perf_counter() - bootstrap_begin
        follower.start()
        followers.append(follower)

        # -- write burst with one follower streaming -------------------
        lag_samples: list[float] = []
        shard = follower.shards[0]
        applied_before = shard.txns_applied
        burst_begin = time.perf_counter()
        _drive_writes(
            service, lids, REPL_SCALE["writes"], REPL_SCALE["rotate_every"],
            lag_samples, shard,
        )
        burst_s = time.perf_counter() - burst_begin
        catchup_s = _await_caught_up(follower, service)
        applied = shard.txns_applied - applied_before
        apply_rate = applied / (burst_s + catchup_s)

        # -- read offload: primary, one follower, two followers ---------
        psess = service.session()
        oracle = {lid: psess.lookup(lid) for lid in lids}
        second = Follower(
            "127.0.0.1", port, os.path.join(directory, "replica-1"),
            poll_interval=0.002,
        ).connect()
        second.catch_up()
        followers.append(second)

        read_ports = {"primary": [port]}
        for index, item in enumerate(followers):
            holder, thread = _serve(item.service)
            servers.append((holder, thread))
            read_ports[f"follower-{index}"] = [holder["server"].port]

        reads = {}
        for label, ports in (
            ("primary only", read_ports["primary"]),
            ("1 follower", read_ports["follower-0"]),
            ("2 followers", read_ports["follower-0"] + read_ports["follower-1"]),
        ):
            rate, verified = _read_throughput(
                ports, lids, REPL_SCALE["read_seconds"],
                REPL_SCALE["read_threads"], oracle,
            )
            reads[label] = {"rate": rate, "verified": verified,
                            "endpoints": len(ports)}

        _memo = {
            "bootstrap_s": bootstrap_s,
            "writes": REPL_SCALE["writes"],
            "applied": applied,
            "burst_s": burst_s,
            "catchup_s": catchup_s,
            "apply_rate": apply_rate,
            "lag_peak_bytes": max(lag_samples) if lag_samples else 0.0,
            "segments_sealed": shard.segments_sealed,
            "reads": reads,
        }
        return _memo
    finally:
        for item in followers:
            try:
                item.close()
            except Exception:  # noqa: BLE001 — teardown
                pass
        for holder, thread in servers:
            try:
                holder["stop"]()
                thread.join(10)
            except Exception:  # noqa: BLE001 — teardown
                pass
        if service is not None:
            service.close()
        shutil.rmtree(directory, ignore_errors=True)


def _apply_gate(results: dict) -> dict:
    gate = {"enabled": bool(int(os.environ.get("REPRO_BENCH_GATE", "0") or "0"))}
    baseline_path = RESULTS_DIR / "BENCH_replication.json"
    if not gate["enabled"]:
        return gate
    if not baseline_path.exists():
        gate["skipped"] = "no committed BENCH_replication.json"
        return gate
    committed = json.loads(baseline_path.read_text())
    if committed.get("scale") != SCALE_NAME:
        gate["skipped"] = (
            f"committed baseline is scale={committed.get('scale')!r}, "
            f"this run is {SCALE_NAME!r}"
        )
        return gate
    committed_rate = committed.get("extra", {}).get("apply_rate")
    if committed_rate is None:
        gate["skipped"] = "committed baseline has no apply_rate"
        return gate
    floor = committed_rate * GATE_FLOOR
    gate["checked"] = {
        "committed_apply_rate": committed_rate,
        "measured_apply_rate": results["apply_rate"],
        "floor": floor,
    }
    gate["failures"] = (
        []
        if results["apply_rate"] >= floor
        else [
            f"apply throughput {results['apply_rate']:.0f} txn/s < floor "
            f"{floor:.0f} (committed {committed_rate:.0f} x {GATE_FLOOR})"
        ]
    )
    return gate


def test_replication_table(benchmark):
    results = _results()
    gate = _apply_gate(results)

    rows = [
        [
            "ship+apply",
            results["writes"],
            fmt(results["apply_rate"], 0) + "/s",
            fmt(results["lag_peak_bytes"] / 1024.0, 1) + "KiB",
            fmt(results["catchup_s"] * 1000.0, 0) + "ms",
            results["segments_sealed"],
        ]
    ]
    for label, row in results["reads"].items():
        rows.append(
            [
                f"reads: {label}",
                row["verified"],
                fmt(row["rate"], 0) + "/s",
                "-",
                "-",
                row["endpoints"],
            ]
        )
    record_table(
        "replication",
        "WAL-shipping replication: apply throughput, peak lag, catch-up, "
        "and read offload (single process; endpoints share the GIL)",
        ["phase", "ops", "throughput", "peak lag", "catch-up", "endpoints"],
        rows,
        extra={
            "scale": SCALE_NAME,
            "base_labels": REPL_SCALE["base"],
            "rotate_every": REPL_SCALE["rotate_every"],
            "read_seconds": REPL_SCALE["read_seconds"],
            "read_threads": REPL_SCALE["read_threads"],
            "bootstrap_s": results["bootstrap_s"],
            "burst_s": results["burst_s"],
            "catchup_s": results["catchup_s"],
            "apply_rate": results["apply_rate"],
            "lag_peak_bytes": results["lag_peak_bytes"],
            "segments_sealed": results["segments_sealed"],
            "reads": results["reads"],
            "gate": gate,
        },
    )

    assert gate.get("failures", []) == [], "\n".join(gate.get("failures", []))
    # The follower applied every burst transaction and ended at zero lag.
    assert results["applied"] >= results["writes"]
    assert results["segments_sealed"] > 0
    # Every benchmarked read was oracle-verified against the primary.
    for label, row in results["reads"].items():
        assert row["verified"] > 0, f"{label}: no reads completed"
