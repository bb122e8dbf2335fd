"""Read frames are answered on the event loop; only waits leave it.

A read frame (``Lookup``, ``Compare``, ``Ordinal``, ``Refresh``, ``Ping``,
``Hello``, ``ReplState``) whose shard latches can be taken shared without
waiting runs inline in the connection's read loop.  ``Submit`` / ``Query``
/ ``ReplFetch``, and a read a writer holds up, go to a ``net-worker``.
These tests pin: no hand-off on an idle server, a read held up by a writer
waits on a worker while other connections are served, writer preference
survives a reader streaming inline, the latch's try / re-entrant hold,
an exact ``inflight`` on every path, and an ``Ordinal`` reply from one
epoch.
"""

from __future__ import annotations

import socket
import struct
import threading
import time
from contextlib import contextmanager

from repro import TINY_CONFIG, BatchOp, BBox, WBox
from repro.net.client import NetClient
from repro.net.protocol import (
    Compare,
    Epochs,
    Lookup,
    Ordinal,
    Orders,
    Ping,
    Pong,
    Refresh,
    Submit,
    Values,
    encode_frame,
)
from repro.net.server import serve_in_thread
from repro.service import ShardedLabelService
from repro.storage import ReaderWriterLatch

from .test_net_admission import Gate, wait_until
from .test_net_pipeline import read_replies


class CountingJobs:
    """Stands in for the server's worker queue and counts the jobs put on
    it; workers already blocked on the real queue still get them."""

    def __init__(self, inner):
        self.inner = inner
        self.puts = 0

    def put(self, job):
        if job is not None:
            self.puts += 1
        self.inner.put(job)

    def get(self):
        return self.inner.get()


class ParkedWriter:
    """A ``yield_hook`` that parks the first writer wake-up at
    ``write:apply``, i.e. while it holds its shard's exclusive latch."""

    def __init__(self):
        self.entered = threading.Event()
        self.release = threading.Event()

    def __call__(self, tag):
        if tag == "write:apply" and not self.entered.is_set():
            self.entered.set()
            assert self.release.wait(30), "writer never released"


@contextmanager
def serving(schemes, server_kwargs=None, **service_kwargs):
    """``(server, service, jobs)``: a started server over ``schemes`` whose
    worker queue counts its jobs."""
    service = ShardedLabelService(schemes, **service_kwargs).start()
    holder, thread = serve_in_thread(service, **(server_kwargs or {}))
    server = holder["server"]
    server._jobs = jobs = CountingJobs(server._jobs)
    try:
        yield server, service, jobs
    finally:
        holder["stop"]()
        thread.join(10)
        service.close()


def ordinal_scheme(count=40):
    scheme = BBox(TINY_CONFIG, ordinal=True)
    return scheme, scheme.bulk_load(count)


def test_an_idle_server_answers_a_read_burst_with_no_hand_off():
    scheme, lids = ordinal_scheme()
    labels = [scheme.lookup(lid) for lid in lids]
    ordinals = [scheme.ordinal_lookup(lid) for lid in lids]
    burst = [
        Lookup(1, tuple(lids[:3])),
        Compare(2, ((lids[0], lids[1]), (lids[5], lids[2]))),
        Ordinal(3, (lids[7], lids[8])),
        Refresh(4),
        Ping(5),
        Lookup(6, (lids[20],)),
    ]
    with serving([scheme]) as (server, _service, jobs):
        with socket.create_connection(("127.0.0.1", server.port), timeout=10) as sock:
            sock.sendall(b"".join(encode_frame(frame) for frame in burst))
            replies = read_replies(sock, len(burst))
        wait_until(lambda: server.inflight == 0)
    assert replies == [
        Values(1, tuple(labels[:3])),
        Orders(2, (-1, 1)),
        Orders(3, (ordinals[7], ordinals[8])),
        Epochs(4, (0,)),
        Pong(5),
        Values(6, (labels[20],)),
    ]
    assert jobs.puts == 0


def test_a_read_held_up_by_a_writer_waits_on_a_worker_while_others_are_served():
    scheme = WBox(TINY_CONFIG)
    lids = scheme.bulk_load(32)
    parked = ParkedWriter()
    with serving([scheme], yield_hook=parked) as (server, service, jobs):
        with NetClient("127.0.0.1", server.port) as a, NetClient("127.0.0.1", server.port) as b:
            cached = b.lookup([lids[1]], timeout=10)
            assert jobs.puts == 0
            ticket = service.submit_ops([BatchOp("insert_before", (lids[0],))])
            assert parked.entered.wait(10)
            first_touch = a.begin_lookup([lids[30]])
            behind = a.begin_ping()
            wait_until(lambda: jobs.puts >= 1)
            # B is answered while the writer holds the latch: a cached
            # read needs no latch, so the worker that takes it never waits.
            assert b.lookup([lids[1]], timeout=10) == cached
            b.ping(timeout=10)
            assert not first_touch.done and not behind.done
            parked.release.set()
            ticket.wait(10)
            value = first_touch.wait(10).values
            assert type(behind.wait(10)) is Pong
            assert first_touch.completed_at <= behind.completed_at
            with NetClient("127.0.0.1", server.port) as fresh:
                assert list(value) == fresh.lookup([lids[30]], timeout=10)
        wait_until(lambda: server.inflight == 0)


def test_a_writer_commits_while_another_connection_streams_inline_reads():
    scheme = WBox(TINY_CONFIG)
    lids = scheme.bulk_load(64)
    stop = threading.Event()
    answered: list[int] = []
    errors: list[BaseException] = []

    def stream(port):
        try:
            with NetClient("127.0.0.1", port) as client:
                n = 0
                while not stop.is_set():
                    pending = [client.begin_lookup([lids[(n + k) % 64]]) for k in range(16)]
                    for item in pending:
                        item.wait(10)
                    n += 16
                    answered.append(n)
        except BaseException as error:  # noqa: BLE001 - reported by the main thread
            errors.append(error)

    with serving([scheme]) as (server, _service, _jobs):
        reader = threading.Thread(target=stream, args=(server.port,), daemon=True)
        reader.start()
        try:
            wait_until(lambda: len(answered) >= 4)
            with NetClient("127.0.0.1", server.port) as writer:
                for n in range(5):
                    started = time.monotonic()
                    assert writer.submit([BatchOp("insert_before", (lids[n],))], timeout=10)
                    assert time.monotonic() - started < 5.0
            streamed = len(answered)
            wait_until(lambda: len(answered) > streamed)
        finally:
            stop.set()
            reader.join(10)
        wait_until(lambda: server.inflight == 0)
    assert errors == []


def test_try_acquire_shared_refuses_while_a_writer_is_active_or_waiting():
    latch = ReaderWriterLatch()
    assert latch.try_acquire_shared()
    latch.release_shared()
    latch.acquire_exclusive()
    assert not latch.try_acquire_shared()  # writer active
    latch.release_exclusive()

    latch.acquire_shared()  # a reader keeps the writer waiting
    writer = threading.Thread(target=lambda: (latch.acquire_exclusive(), latch.release_exclusive()))
    writer.start()
    wait_until(lambda: latch._writers_waiting == 1)
    refused: list[bool] = []
    other = threading.Thread(target=lambda: refused.append(latch.try_acquire_shared()))
    other.start()
    other.join(10)
    assert refused == [False]  # writer waiting: a new reader queues behind it
    # The thread already holding it re-enters without waiting on the writer.
    assert latch.try_acquire_shared()
    latch.acquire_shared()
    latch.release_shared()
    latch.release_shared()
    assert writer.is_alive()  # still one hold left
    latch.release_shared()
    writer.join(10)
    assert not writer.is_alive()
    assert latch.try_acquire_shared()
    latch.release_shared()


def test_inflight_is_exact_after_inline_worker_and_mixed_runs_and_a_reset():
    scheme = WBox(TINY_CONFIG)
    lids = scheme.bulk_load(16)
    with serving([scheme], server_kwargs={"max_inflight": 64}) as (server, service, jobs):
        with NetClient("127.0.0.1", server.port) as client:
            assert [client.begin_ping().wait(10) for _ in range(8)]  # inline
            wait_until(lambda: server.inflight == 0)
            assert jobs.puts == 0
            client.submit([BatchOp("insert_before", (lids[2],))], timeout=10)  # worker
            wait_until(lambda: server.inflight == 0)
            mixed = [
                client.begin_lookup([lids[0]]),
                client.begin_submit([BatchOp("insert_before", (lids[3],))]),
                client.begin_compare([(lids[0], lids[1])]),
                client.begin_ping(),
            ]
            assert [item.wait(10) for item in mixed]
            wait_until(lambda: server.inflight == 0)

        gate = service.submit_ops = Gate(service.submit_ops)
        burst = [Lookup(1, (lids[0],)), Submit(2, (BatchOp("insert_before", (lids[4],)),))]
        burst += [Ping(3 + n) for n in range(6)]
        sock = socket.create_connection(("127.0.0.1", server.port), timeout=10)
        try:
            sock.sendall(b"".join(encode_frame(frame) for frame in burst))
            assert gate.entered.wait(10)
            wait_until(lambda: server.inflight == 7)  # the Lookup was answered inline
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
        finally:
            sock.close()
        gate.open.set()
        wait_until(lambda: server.inflight == 0)
        time.sleep(0.05)
        assert server.inflight == 0


def test_a_batched_ordinal_reply_is_served_at_one_epoch():
    """Cache ``a``'s ordinal, commit an insert before ``a``, then ask for
    ``(a, b)`` with ``b`` first-touch: ``b``'s fallthrough moves the pin,
    so ``a`` must be re-read at the new epoch, not served from the old."""
    scheme, lids = ordinal_scheme()
    twin, twin_lids = ordinal_scheme()
    a, b = lids[10], lids[11]
    before = [twin.ordinal_lookup(twin_lids[10]), twin.ordinal_lookup(twin_lids[11])]
    twin.insert_before(twin_lids[10])
    after = [twin.ordinal_lookup(twin_lids[10]), twin.ordinal_lookup(twin_lids[11])]
    assert before[0] != after[0] and before[1] != after[1]  # a mix is visible
    with serving([scheme]) as (server, _service, _jobs):
        with NetClient("127.0.0.1", server.port) as client:
            assert client.ordinal([a], timeout=10) == before[:1]
            client.submit([BatchOp("insert_before", (a,))], timeout=10)
            assert client.ordinal([a, b], timeout=10) == after
