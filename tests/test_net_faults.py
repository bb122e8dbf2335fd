"""Fault injection across the network path.

The same :class:`FaultPlan` hooks that drive the chaos harness kill a
writer *under live connections*: in-flight and subsequent writes come
back as typed ``DEGRADED`` error frames, while the connections' pinned
sessions keep answering warmed reads — the degraded read-only contract,
observed from the far side of the socket.  On a sharded service, killing
one shard's writer leaves the other shard fully read-write.
"""

from __future__ import annotations

import threading

import pytest

from repro import TINY_CONFIG, BatchOp, WBox
from repro.errors import ServiceDegradedError
from repro.faults import FaultInjector, FaultPlan
from repro.net.client import NetClient
from repro.net.server import run_server
from repro.service import ShardedLabelService, bulk_load_sharded


def start_server(service):
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


def stop_server(holder, thread):
    holder["stop"]()
    thread.join(10)


def test_writer_crash_under_live_connection():
    """One connection warms reads, submits the killing write, and keeps
    reading after the writer dies."""
    scheme = WBox(TINY_CONFIG)
    lids = scheme.bulk_load(24)
    service = ShardedLabelService(
        [scheme],
        fault_injector=FaultInjector(FaultPlan.writer_crash(at=2)),
    ).start()
    holder, thread = start_server(service)
    try:
        with NetClient("127.0.0.1", holder["server"].port) as client:
            # First write survives (the kill fires at group commit 2)...
            client.submit([BatchOp("insert_before", (lids[3],))])
            client.refresh()
            # Warm the pinned session's caches over the wire at the
            # post-write epoch (an earlier warm would have been range-
            # invalidated by the insert's label shifts).
            warmed = client.lookup(lids[:8])
            assert len(warmed) == 8
            # ...the second one dies mid-commit: typed DEGRADED frame.
            with pytest.raises(ServiceDegradedError):
                client.submit([BatchOp("insert_before", (lids[4],))])
            assert service.degraded
            # In-flight/later writes keep failing fast, typed.
            with pytest.raises(ServiceDegradedError):
                client.submit([BatchOp("insert_before", (lids[5],))])
            # But the pinned session still answers its warmed reads.
            assert client.lookup(lids[:8]) == warmed
            # A *cold* LID needs a BOX fallthrough, which degraded mode
            # refuses — typed, not a hang or a reset.
            with pytest.raises(ServiceDegradedError):
                client.lookup([lids[20]])
            # The connection itself is still healthy after all of that.
            client.ping()
    finally:
        stop_server(holder, thread)
        service.close()


def test_new_connections_read_after_degradation():
    """A session pinned after the crash still serves reads that the
    pre-crash epochs cover via cache warming from another connection? No:
    a brand-new session has cold caches, so its reads need fallthrough
    and are refused.  What must still work on a fresh connection is the
    handshake, pings, and typed errors — no resets, no hangs."""
    scheme = WBox(TINY_CONFIG)
    lids = scheme.bulk_load(16)
    service = ShardedLabelService(
        [scheme],
        fault_injector=FaultInjector(FaultPlan.writer_crash(at=1)),
    ).start()
    holder, thread = start_server(service)
    try:
        with NetClient("127.0.0.1", holder["server"].port) as client:
            with pytest.raises(ServiceDegradedError):
                client.submit([BatchOp("insert_before", (lids[0],))])
        with NetClient("127.0.0.1", holder["server"].port) as fresh:
            fresh.ping()
            assert fresh.server_info is not None
            with pytest.raises(ServiceDegradedError):
                fresh.lookup([lids[1]])
            with pytest.raises(ServiceDegradedError):
                fresh.submit([BatchOp("insert_before", (lids[2],))])
            fresh.ping()
    finally:
        stop_server(holder, thread)
        service.close()


def test_single_shard_crash_leaves_other_shard_writable():
    """Scoped injection kills shard 1's writer; shard 0 stays read-write
    and both facts are visible through one connection."""
    schemes = [WBox(TINY_CONFIG) for _ in range(2)]
    glids = bulk_load_sharded(schemes, 32)
    injector = FaultInjector(
        FaultPlan.writer_crash(at=1, hook="service.group_commit@shard1")
    )
    service = ShardedLabelService(schemes, fault_injector=injector).start()
    shard0 = [glid for glid in glids if glid % 2 == 0]
    shard1 = [glid for glid in glids if glid % 2 == 1]
    holder, thread = start_server(service)
    try:
        with NetClient("127.0.0.1", holder["server"].port) as client:
            warmed = client.lookup(shard1[:4])
            # Kill shard 1's writer.
            with pytest.raises(ServiceDegradedError):
                client.submit([BatchOp("insert_before", (shard1[2],))])
            assert service.degraded_shards == [1]
            # Shard 0 still accepts writes over the same connection...
            new_glid = client.submit([BatchOp("insert_before", (shard0[2],))])[0]
            client.refresh()
            assert client.compare([(new_glid, shard0[2])]) == [-1]
            # ...while shard 1 serves warmed reads and refuses writes.
            assert client.lookup(shard1[:4]) == warmed
            with pytest.raises(ServiceDegradedError):
                client.submit([BatchOp("insert_before", (shard1[3],))])
    finally:
        stop_server(holder, thread)
        service.close()


def test_latency_spike_does_not_break_pipelining():
    """A latency-spike fault on one shard's apply path slows that write
    but drops nothing: pipelined requests all answer, ids intact."""
    schemes = [WBox(TINY_CONFIG) for _ in range(2)]
    glids = bulk_load_sharded(schemes, 32)
    injector = FaultInjector(
        FaultPlan.latency_spike(0.05, hook="service.writer_apply@shard1", at=1)
    )
    service = ShardedLabelService(schemes, fault_injector=injector).start()
    holder, thread = start_server(service)
    try:
        with NetClient("127.0.0.1", holder["server"].port) as client:
            slow = client.begin_submit([BatchOp("insert_before", (glids[1],))])
            fast = [client.begin_lookup([glids[0]]) for _ in range(5)]
            assert slow.wait(10).values
            for pending in fast:
                assert pending.wait(10).values == (0,)
    finally:
        stop_server(holder, thread)
        service.close()
