"""What a connection may rely on when it pipelines.

Raw sockets send whole bursts in one ``sendall`` so several frames reach
the server in one ``recv``: replies come back in request order, a reply
never waits behind a *later* write of the same burst, one connection's
stuck write does not delay another connection's reads, a query stream's
chunks stay contiguous while other requests are being shed, a reply the
wire refuses fails only its own request, and the connection's pinned
session is only ever on one thread at a time.
"""

from __future__ import annotations

import socket
import threading
import time

from repro import TINY_CONFIG, BatchOp, NaiveScheme, WBox
from repro.net import protocol as proto
from repro.net.client import NetClient
from repro.net.protocol import (
    Compare,
    Epochs,
    ErrorFrame,
    FrameDecoder,
    Lookup,
    Orders,
    Ping,
    Pong,
    Query,
    QueryChunk,
    Refresh,
    Results,
    Submit,
    Values,
    encode_frame,
)
from repro.query import ElementCatalog

from .test_net_admission import Gate, serving
from .test_net_query import N_CHILDREN, build_catalog


def read_replies(sock, n, timeout=10.0):
    """The next frames off ``sock`` until ``n`` requests are answered (a
    query stream counts once, at its last chunk)."""
    decoder, frames, answered = FrameDecoder(), [], 0
    sock.settimeout(timeout)
    while answered < n:
        data = sock.recv(1 << 16)
        assert data, f"connection closed after {frames}"
        decoder.feed(data)
        for frame in decoder.frames():
            frames.append(frame)
            answered += not (type(frame) is QueryChunk and not frame.last)
    return frames


def test_one_burst_answers_in_order_and_sees_its_own_refreshed_write():
    scheme, twin = WBox(TINY_CONFIG), WBox(TINY_CONFIG)
    lids, pairs = build_catalog(scheme, N_CHILDREN)
    build_catalog(twin, N_CHILDREN)
    root = pairs[0]
    before = [twin.lookup(lid) for lid in lids[:3]]
    created = tuple(twin.insert_element_before(root[1]))
    burst = [
        Lookup(1, tuple(lids[:3])),
        Submit(2, (BatchOp("insert_element_before", (root[1],)),)),
        Refresh(3),
        Lookup(4, created),
        Compare(5, ((created[0], created[1]), (created[1], root[1]), (root[1], lids[1]))),
        Query(6, proto.AXIS_DESCENDANTS, root[0], root[1], 0, 4),
    ]
    with serving(scheme, catalog=ElementCatalog(pairs)) as (server, _service):
        with socket.create_connection(("127.0.0.1", server.port), timeout=10) as sock:
            sock.sendall(b"".join(encode_frame(frame) for frame in burst))
            replies = read_replies(sock, len(burst))
    chunks = replies[5:]
    assert replies[:5] == [
        Values(1, tuple(before)),
        Results(2, (created,)),
        Epochs(3, (1,)),
        Values(4, tuple(twin.lookup(lid) for lid in created)),
        Orders(5, (-1, -1, 1)),
    ]
    assert all(type(chunk) is QueryChunk and chunk.request_id == 6 for chunk in chunks)
    assert [chunk.last for chunk in chunks] == [False, False, True]  # ceil(11 / 4)
    assert {chunk.epochs for chunk in chunks} == {(1,)}
    elements = [element for chunk in chunks for element in chunk.elements]
    assert elements == pairs[1:] + [created]  # the insert is the root's last child


def test_a_reply_never_waits_behind_a_later_write_nor_another_connection():
    scheme = WBox(TINY_CONFIG)
    lids = scheme.bulk_load(16)
    labels = [scheme.lookup(lid) for lid in lids]
    burst = [
        Lookup(1, (lids[0],)),
        Ping(2),
        Submit(3, (BatchOp("insert_before", (lids[8],)),)),
        Lookup(4, (lids[1],)),
    ]
    with serving(scheme) as (server, service):
        gate = service.submit_ops = Gate(service.submit_ops)
        try:
            with socket.create_connection(("127.0.0.1", server.port), timeout=10) as sock:
                sock.sendall(b"".join(encode_frame(frame) for frame in burst))
                # The reads queued ahead of the write answer while it is stuck...
                assert read_replies(sock, 2) == [Values(1, (labels[0],)), Pong(2)]
                assert gate.entered.wait(10) and not gate.open.is_set()
                # ...and so does another connection, which shares nothing with it.
                with NetClient("127.0.0.1", server.port) as other:
                    assert other.lookup(lids[:4], timeout=10) == labels[:4]
                    other.ping(timeout=10)
                assert not gate.open.is_set()
                gate.open.set()
                results, after = read_replies(sock, 2)
                assert type(results) is Results and results.request_id == 3
                assert after == Values(4, (labels[1],))  # pinned epoch: pre-insert label
        finally:
            gate.open.set()


def test_query_chunks_stay_contiguous_while_requests_are_shed():
    scheme = WBox(TINY_CONFIG)
    _lids, pairs = build_catalog(scheme, N_CHILDREN)
    root = pairs[0]
    n_pings = 200
    with serving(scheme, catalog=ElementCatalog(pairs), max_inflight=1) as (server, _service):
        with socket.create_connection(("127.0.0.1", server.port), timeout=10) as sock:
            sock.sendall(encode_frame(Query(1, proto.AXIS_DESCENDANTS, root[0], root[1], 0, 1)))

            def ping_storm():
                for n in range(n_pings):
                    sock.sendall(encode_frame(Ping(2 + n)))

            storm = threading.Thread(target=ping_storm)
            storm.start()
            replies = read_replies(sock, 1 + n_pings)
            storm.join(10)
            assert not storm.is_alive()
    stream = [at for at, frame in enumerate(replies) if type(frame) is QueryChunk]
    assert stream == list(range(stream[0], stream[0] + N_CHILDREN))
    chunks = [replies[at] for at in stream]
    assert [element for chunk in chunks for element in chunk.elements] == pairs[1:]
    assert [chunk.last for chunk in chunks] == [False] * (N_CHILDREN - 1) + [True]
    others = [frame for frame in replies if type(frame) is not QueryChunk]
    assert sorted(frame.request_id for frame in others) == list(range(2, 2 + n_pings))
    shed = [frame for frame in others if type(frame) is ErrorFrame]
    assert shed and all(frame.code == proto.ERR_OVERLOADED for frame in shed)
    assert all(type(frame) is Pong for frame in others if type(frame) is not ErrorFrame)


def test_a_reply_the_wire_refuses_fails_only_its_own_request_in_a_burst():
    scheme = NaiveScheme(300, TINY_CONFIG)  # labels past MAX_VALUE_VARINT_BYTES
    lids = scheme.bulk_load(8)
    burst = [Ping(1), Lookup(2, tuple(lids)), Compare(3, ((lids[0], lids[1]),)), Ping(4)]
    with serving(scheme) as (server, _service):
        with socket.create_connection(("127.0.0.1", server.port), timeout=10) as sock:
            sock.sendall(b"".join(encode_frame(frame) for frame in burst))
            first, refused, compared, last = read_replies(sock, len(burst))
            assert (first, compared, last) == (Pong(1), Orders(3, (-1,)), Pong(4))
            assert type(refused) is ErrorFrame and refused.request_id == 2
            assert refused.code == proto.ERR_PROTOCOL and "cannot encode" in refused.message
            # The connection lives on.
            sock.sendall(encode_frame(Ping(5)))
            assert read_replies(sock, 1) == [Pong(5)]


def test_a_session_is_on_one_thread_at_a_time():
    """Bursts keep arriving while earlier ones execute; the connection's
    session must still never be entered by two worker threads at once."""
    scheme = WBox(TINY_CONFIG)
    lids = scheme.bulk_load(16)
    labels = [scheme.lookup(lid) for lid in lids]
    inside: list[int] = []
    overlaps: list[tuple[int, ...]] = []
    with serving(scheme, max_inflight=256) as (server, service):
        open_session = service.session

        def watched_session():
            session = open_session()
            lookup_many = session.lookup_many

            def watched(wanted):
                inside.append(threading.get_ident())
                if len(inside) > 1:
                    overlaps.append(tuple(inside))
                time.sleep(0.001)  # hold the session long enough to be caught
                try:
                    return lookup_many(wanted)
                finally:
                    inside.pop()

            session.lookup_many = watched
            return session

        service.session = watched_session
        with NetClient("127.0.0.1", server.port) as client:
            pending = [client.begin_lookup([lids[n % 16]]) for n in range(120)]
            answers = [item.wait(10).values for item in pending]
            assert [item.completed_at for item in pending] == sorted(
                item.completed_at for item in pending
            )
    assert answers == [(labels[n % 16],) for n in range(120)]
    assert overlaps == []
