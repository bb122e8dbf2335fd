"""NetClient.close(): idempotent, deterministic, and prompt.

The shutdown contract the load generator and the replication follower
both lean on: a second ``close`` is a no-op (not an ``OSError`` from
shutting down an already-closed socket), every in-flight request fails
with :class:`ConnectionError` *at close time* rather than whenever the
reader thread notices the dead socket, later ``begin_*`` calls raise
immediately, and a reader thread that refuses to die is *reported* (a
:class:`RuntimeWarning`), never silently leaked.
"""

from __future__ import annotations

import socket
import threading
import time

import pytest

from repro import TINY_CONFIG, WBox
from repro.net.client import NetClient
from repro.net.server import run_server
from repro.service import ShardedLabelService


@pytest.fixture(scope="module")
def server():
    scheme = WBox(TINY_CONFIG)
    scheme.bulk_load(24, [i ^ 1 for i in range(24)])
    service = ShardedLabelService([scheme]).start()
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
    yield holder["server"]
    holder["stop"]()
    thread.join(10)
    service.close()


@pytest.fixture()
def silent_port():
    """A listener that accepts connections and never answers — the shape
    of a hung server, for pinning *who* unblocks a waiting client."""
    sock = socket.socket()
    sock.bind(("127.0.0.1", 0))
    sock.listen(8)
    conns: list[socket.socket] = []

    def accept_loop() -> None:
        while True:
            try:
                conn, _ = sock.accept()
            except OSError:
                return
            conns.append(conn)

    thread = threading.Thread(target=accept_loop, daemon=True)
    thread.start()
    yield sock.getsockname()[1]
    # close() from this thread does not wake a thread blocked in accept()
    # on Linux; shutdown() does (accept fails with EINVAL).
    sock.shutdown(socket.SHUT_RDWR)
    sock.close()
    for conn in conns:
        try:
            conn.close()
        except OSError:
            pass
    thread.join(5)
    assert not thread.is_alive(), "accept loop leaked past the fixture"


class TestIdempotence:
    def test_double_close_is_a_noop(self, server):
        client = NetClient("127.0.0.1", server.port)
        client.close()
        client.close()  # second close: no shutdown() on a closed socket

    def test_context_manager_then_explicit_close(self, server):
        with NetClient("127.0.0.1", server.port) as client:
            assert client.server_info is not None
        client.close()

    def test_concurrent_closes_race_cleanly(self, server):
        client = NetClient("127.0.0.1", server.port)
        errors: list[BaseException] = []

        def close() -> None:
            try:
                client.close()
            except BaseException as error:  # noqa: BLE001 — the assertion
                errors.append(error)

        threads = [threading.Thread(target=close) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(10)
        assert errors == []

    def test_server_unaffected_by_client_churn(self, server):
        for _ in range(5):
            client = NetClient("127.0.0.1", server.port)
            client.close()
            client.close()
        with NetClient("127.0.0.1", server.port) as probe:
            probe.ping()


class TestInFlightRequests:
    def test_close_fails_pending_promptly(self, silent_port):
        """A request the server will never answer fails the moment the
        client closes — not after a socket timeout."""
        client = NetClient("127.0.0.1", silent_port, handshake=False)
        pending = client.begin_ping()
        started = time.monotonic()
        client.close()
        with pytest.raises(ConnectionError, match="closed while request"):
            pending.wait(timeout=10)
        assert time.monotonic() - started < 5.0
        assert pending.done

    def test_every_inflight_request_gets_the_error(self, silent_port):
        client = NetClient("127.0.0.1", silent_port, handshake=False)
        pendings = [client.begin_ping() for _ in range(16)]
        client.close()
        for pending in pendings:
            assert pending.done
            with pytest.raises(ConnectionError):
                pending.wait(timeout=1)

    def test_begin_after_close_raises_immediately(self, server):
        client = NetClient("127.0.0.1", server.port)
        client.close()
        with pytest.raises(ConnectionError, match="connection is dead"):
            client.begin_ping()

    def test_blocking_call_after_close_raises(self, server):
        client = NetClient("127.0.0.1", server.port)
        client.close()
        with pytest.raises(ConnectionError):
            client.lookup([0])


class TestReaderThread:
    def test_close_joins_reader(self, server):
        client = NetClient("127.0.0.1", server.port)
        reader = client._reader
        client.close()
        assert not reader.is_alive()

    def test_stuck_reader_is_reported_not_leaked(self, server):
        """If the reader cannot exit within the close timeout, close
        warns instead of hanging forever or silently leaking the
        thread.  (A real reader is unblocked by the socket shutdown;
        the stand-in simulates a platform where it is not.)"""
        client = NetClient("127.0.0.1", server.port)
        real_reader = client._reader
        stuck = threading.Thread(target=time.sleep, args=(30,), daemon=True)
        stuck.start()
        client._reader = stuck
        try:
            with pytest.warns(RuntimeWarning, match="reader thread still alive"):
                client.close(timeout=0.2)
        finally:
            client._reader = real_reader
            real_reader.join(5)
