"""Admission control at the network front end.

A small in-flight cap and a write gated on an ``Event`` pin the overload
contract: requests past the cap are shed at the door with typed
``OVERLOADED`` frames *immediately*, admitted ones are answered once the
gate opens, the visible backlog (``server.inflight``) is exact — back to
0 after the replies and after an abrupt disconnect with requests still
queued — and one connection's stuck write does not stop another
connection being served.
"""

from __future__ import annotations

import socket
import struct
import threading
import time
from contextlib import contextmanager

import pytest

from repro import TINY_CONFIG, BatchOp, WBox
from repro.errors import ServiceOverloadedError
from repro.net.client import NetClient
from repro.net.protocol import Lookup, Ping, Submit, encode_frame
from repro.net.server import serve_in_thread
from repro.obs.metrics import get_registry
from repro.service import ShardedLabelService

CAP = 4


class Gate:
    """Wraps a callable so a test decides when it may proceed: ``entered``
    is set when a caller arrives, which then blocks until ``open`` is."""

    def __init__(self, inner):
        self.inner = inner
        self.entered = threading.Event()
        self.open = threading.Event()

    def __call__(self, *args, **kwargs):
        self.entered.set()
        assert self.open.wait(30), "gate never opened"
        return self.inner(*args, **kwargs)


def wait_until(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition not reached in time"
        time.sleep(0.005)


@contextmanager
def serving(scheme, **kwargs):
    """``(server, service)`` over ``scheme`` for the length of the block."""
    service = ShardedLabelService([scheme]).start()
    holder, thread = serve_in_thread(service, **kwargs)
    try:
        yield holder["server"], service
    finally:
        holder["stop"]()
        thread.join(10)
        service.close()


@pytest.fixture()
def gated():
    """``(server, gate, lids, labels)``: a server capped at ``CAP``
    in-flight requests whose every ``Submit`` waits on ``gate``."""
    scheme = WBox(TINY_CONFIG)
    lids = scheme.bulk_load(16)
    labels = [scheme.lookup(lid) for lid in lids]
    with serving(scheme, max_inflight=CAP) as (server, service):
        gate = service.submit_ops = Gate(service.submit_ops)
        try:
            yield server, gate, lids, labels
        finally:
            gate.open.set()


def test_requests_past_the_cap_are_shed_typed_and_immediately(gated):
    server, gate, lids, labels = gated
    shed_total = get_registry().counter("repro_net_shed_total")
    shed_before = shed_total.value
    with NetClient("127.0.0.1", server.port) as client:
        write = client.begin_submit([BatchOp("insert_before", (lids[3],))])
        assert gate.entered.wait(10)
        behind = [client.begin_ping() for _ in range(CAP - 1)]
        wait_until(lambda: server.inflight == CAP)
        past = [client.begin_ping() for _ in range(3)]
        # Shed at the door: typed, and answered while the gate is shut.
        for pending in past:
            with pytest.raises(ServiceOverloadedError, match="overloaded"):
                pending.wait(10)
        assert not gate.open.is_set()
        assert not write.done and not any(pending.done for pending in behind)
        assert server.inflight == CAP
        assert shed_total.value == shed_before + len(past)
        # The admitted ones are answered, in order, after release.
        gate.open.set()
        assert write.wait(10).values
        for pending in behind:
            pending.wait(10)
        assert write.completed_at <= behind[0].completed_at
        wait_until(lambda: server.inflight == 0)
        # And the door is open again.
        client.ping(timeout=10)
    assert shed_total.value == shed_before + len(past)


def test_second_connection_is_served_while_first_is_gated(gated):
    server, gate, lids, labels = gated
    with NetClient("127.0.0.1", server.port) as first:
        write = first.begin_submit([BatchOp("insert_before", (lids[3],))])
        assert gate.entered.wait(10)
        behind = first.begin_lookup([lids[0]])
        wait_until(lambda: server.inflight == 2)
        with NetClient("127.0.0.1", server.port) as second:
            assert second.lookup(lids[:4], timeout=10) == labels[:4]
            assert second.compare([(lids[0], lids[1])], timeout=10) == [-1]
        assert not write.done and not behind.done
        wait_until(lambda: server.inflight == 2)
        gate.open.set()
        assert write.wait(10).values
        assert behind.wait(10).values == (labels[0],)
    wait_until(lambda: server.inflight == 0)


def test_inflight_is_released_after_abrupt_disconnect_with_requests_queued(gated):
    """The peer resets the connection while one request is executing
    (gated) and the rest of its burst is queued behind it: every admitted
    slot comes back, none twice."""
    server, gate, lids, labels = gated
    burst = encode_frame(Submit(1, (BatchOp("insert_before", (lids[3],)),)))
    burst += b"".join(encode_frame(Ping(2 + n)) for n in range(CAP + 2))
    sock = socket.create_connection(("127.0.0.1", server.port), timeout=10)
    try:
        sock.sendall(burst)
        assert gate.entered.wait(10)
        wait_until(lambda: server.inflight == CAP)
        # RST, not FIN: the server finds out mid-flight.
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
    finally:
        sock.close()
    gate.open.set()
    wait_until(lambda: server.inflight == 0)
    time.sleep(0.05)
    assert server.inflight == 0
    # The slots are really back: a fresh connection fills the cap again.
    with NetClient("127.0.0.1", server.port) as client:
        assert [client.begin_ping().wait(10) for _ in range(CAP)]
        assert client.lookup([lids[0]], timeout=10) == labels[:1]


def test_a_peer_that_never_reads_cannot_grow_the_send_buffer(gated):
    """A raw socket pipelines ``Lookup`` frames and never reads a reply.
    The server must stop reading from it once its send buffer is over the
    high-water mark, so TCP pushes back on the peer and what is buffered
    in user space stays bounded — and the rest of the server carries on."""
    server, _gate, lids, labels = gated
    limit = 1 << 20
    chunk = b"".join(encode_frame(Lookup(1 + n, (lids[n % 16],))) for n in range(8192))

    def buffered():
        # Racy by design: a monitoring read of every transport's backlog.
        return max(
            (w.transport.get_write_buffer_size() for w in list(server._connections)),
            default=0,
        )

    peak = 0
    sock = socket.create_connection(("127.0.0.1", server.port), timeout=10)
    try:
        sock.settimeout(1.0)
        deadline = time.monotonic() + 20
        try:
            while peak < limit and time.monotonic() < deadline:
                sock.sendall(chunk)
                peak = max(peak, buffered())
            stalled = False
        except socket.timeout:
            stalled = True  # backpressure reached the peer
        peak = max(peak, buffered())
        assert peak < limit, f"send buffer grew to {peak} bytes for a peer that never reads"
        assert stalled, "the server kept reading from a peer that never reads"
        # One stuck peer pins no capacity: a second client gets real answers
        # (at worst after a shed or two while the last chunk read is served).
        with NetClient("127.0.0.1", server.port) as client:

            def answered():
                try:
                    return client.lookup(lids[:4], timeout=10) == labels[:4]
                except ServiceOverloadedError:
                    return False

            wait_until(answered)
            assert buffered() < limit
    finally:
        sock.close()
