"""Query streams over the wire.

The streaming frame pair (``Query`` → ``QueryChunk``*) against a live
server: results must be byte-identical to an in-process engine over the
same catalog, chunking must reassemble with identical epochs on every
chunk, a rude client abandoning mid-stream must hurt nobody else, and a
writer death must collapse a stream to one typed DEGRADED error — never
a truncated or mixed result set.
"""

from __future__ import annotations

import socket
import threading

import pytest

from repro import TINY_CONFIG, BatchOp, WBox
from repro.errors import ReproError, ServiceDegradedError
from repro.faults import FaultInjector, FaultPlan
from repro.net import protocol as proto
from repro.net.client import NetClient, PendingStream
from repro.net.protocol import Query, QueryChunk, encode_frame
from repro.net.server import run_server
from repro.query import ElementCatalog, QueryEngine
from repro.service import ShardedLabelService
from repro.workloads import two_level_pairing

N_CHILDREN = 10


def build_catalog(scheme, n_children):
    lids = scheme.bulk_load(2 + 2 * n_children, pairing=two_level_pairing(n_children))
    pairs = [(lids[0], lids[-1])] + [
        (lids[1 + 2 * c], lids[2 + 2 * c]) for c in range(n_children)
    ]
    return lids, pairs


def start_server(service, **kwargs):
    ready = threading.Event()
    holder: dict = {}
    thread = threading.Thread(
        target=run_server,
        args=(service,),
        kwargs={"ready": ready, "holder": holder, **kwargs},
        daemon=True,
    )
    thread.start()
    assert ready.wait(10)
    return holder, thread


def stop_server(holder, thread):
    holder["stop"]()
    thread.join(10)


@pytest.fixture()
def world():
    scheme = WBox(TINY_CONFIG)
    lids, pairs = build_catalog(scheme, N_CHILDREN)
    service = ShardedLabelService([scheme]).start()
    catalog = ElementCatalog(pairs)
    holder, thread = start_server(service, catalog=catalog)
    try:
        yield holder["server"], service, lids, pairs
    finally:
        stop_server(holder, thread)
        service.close()


def test_wire_results_match_in_process_engine(world):
    server, service, lids, pairs = world
    engine = QueryEngine(service.session(), pairs)
    root = pairs[0]
    with NetClient("127.0.0.1", server.port) as client:
        for axis, local in (
            (proto.AXIS_DESCENDANTS, list(engine.descendants(root))),
            (proto.AXIS_FOLLOWING, list(engine.following(root))),
            (proto.AXIS_ANCESTORS, list(engine.ancestors(pairs[3]))),
        ):
            element = root if axis != proto.AXIS_ANCESTORS else pairs[3]
            epochs, remote = client.query(axis, element[0], element[1])
            assert remote == local
            assert epochs == engine.view().epochs
        epochs, at_depth = client.query(
            proto.AXIS_ANCESTOR_AT_DEPTH, pairs[5][0], pairs[5][1], depth=0
        )
        assert at_depth == [root]


def test_chunked_stream_reassembles_with_identical_epochs(world):
    server, _service, _lids, pairs = world
    root = pairs[0]
    with NetClient("127.0.0.1", server.port) as client:
        whole_epochs, whole = client.query(proto.AXIS_DESCENDANTS, *root)
        pending = client.begin_query(proto.AXIS_DESCENDANTS, *root, chunk=3)
        epochs, elements = pending.result(10)
        assert elements == whole and epochs == whole_epochs
        assert len(pending.chunks) == 4  # ceil(10 / 3)
        assert [chunk.last for chunk in pending.chunks] == [False, False, False, True]
        assert all(chunk.epochs == epochs for chunk in pending.chunks)


def test_empty_result_is_one_empty_last_chunk(world):
    server, _service, _lids, pairs = world
    leaf = pairs[4]
    with NetClient("127.0.0.1", server.port) as client:
        pending = client.begin_query(proto.AXIS_DESCENDANTS, *leaf)
        epochs, elements = pending.result(10)
        assert elements == []
        assert len(pending.chunks) == 1 and pending.chunks[0].last


def test_unknown_element_and_axis_are_typed_per_request_errors(world):
    server, _service, _lids, pairs = world
    with NetClient("127.0.0.1", server.port) as client:
        with pytest.raises(ReproError):
            client.query(proto.AXIS_DESCENDANTS, 9001, 9002)
        with pytest.raises(ReproError):
            client.query(77, *pairs[0])
        # Per-request, not per-connection: the stream after the errors works.
        _epochs, elements = client.query(proto.AXIS_DESCENDANTS, *pairs[0])
        assert len(elements) == N_CHILDREN


def test_writes_through_the_wire_become_queryable(world):
    server, _service, lids, pairs = world
    root = pairs[0]
    with NetClient("127.0.0.1", server.port) as client:
        created = tuple(
            client.submit([BatchOp("insert_element_before", (root[1],))])[0]
        )
        client.refresh()
        _epochs, elements = client.query(proto.AXIS_DESCENDANTS, *root)
        assert elements[-1] == created  # last child of the root
        _epochs, ancestors = client.query(proto.AXIS_ANCESTORS, *created)
        assert ancestors == [root]
        client.submit([BatchOp("delete_element", created)])
        client.refresh()
        _epochs, after = client.query(proto.AXIS_DESCENDANTS, *root)
        assert created not in after and len(after) == N_CHILDREN


def test_rude_client_abandons_mid_stream(world):
    """Send a many-chunk query, read one chunk, slam the socket.  The
    server must shrug (the stream's writes hit a dead socket) and keep
    serving everyone else."""
    server, _service, _lids, pairs = world
    root = pairs[0]
    wire = encode_frame(Query(1, proto.AXIS_DESCENDANTS, root[0], root[1], 0, 1))
    with socket.create_connection(("127.0.0.1", server.port), timeout=10) as sock:
        sock.sendall(wire)
        sock.settimeout(10)
        data = sock.recv(64)  # at most a chunk or two of the ten coming
        assert data
        # no shutdown, no goodbye: just vanish mid-stream
    # A second rude client vanishes before reading anything at all.
    rude = socket.create_connection(("127.0.0.1", server.port), timeout=10)
    rude.sendall(wire)
    rude.close()
    with NetClient("127.0.0.1", server.port) as client:
        epochs, elements = client.query(proto.AXIS_DESCENDANTS, *root, chunk=1)
        assert len(elements) == N_CHILDREN
        client.ping()


def test_writer_death_collapses_stream_to_typed_degraded():
    """Cold view builds need BOX fallthroughs, which a degraded service
    refuses: the query answers with ONE typed DEGRADED error frame and
    zero chunks — a client can never see a truncated result set.  A
    connection whose view predates the crash keeps streaming its pinned
    epoch."""
    scheme = WBox(TINY_CONFIG)
    lids, pairs = build_catalog(scheme, 6)
    service = ShardedLabelService(
        [scheme],
        fault_injector=FaultInjector(FaultPlan.writer_crash(at=1)),
    ).start()
    catalog = ElementCatalog(pairs)
    holder, thread = start_server(service, catalog=catalog)
    root = pairs[0]
    try:
        with NetClient("127.0.0.1", holder["server"].port) as warmed:
            before_epochs, before = warmed.query(proto.AXIS_DESCENDANTS, *root)
            assert len(before) == 6
            # The killing write: the writer dies mid-commit.
            with pytest.raises(ServiceDegradedError):
                warmed.submit([BatchOp("insert_before", (lids[3],))])
            assert service.degraded
            # Same connection, cached pre-crash view: still streams.
            after_epochs, after = warmed.query(proto.AXIS_DESCENDANTS, *root)
            assert (after_epochs, after) == (before_epochs, before)
        with NetClient("127.0.0.1", holder["server"].port) as cold:
            pending = cold.begin_query(proto.AXIS_DESCENDANTS, *root)
            with pytest.raises(ServiceDegradedError):
                pending.result(10)
            assert pending.chunks == []  # typed error, not a torn stream
            cold.ping()  # the connection survives the refusal
    finally:
        stop_server(holder, thread)
        service.close()


def test_pending_stream_epoch_mismatch_is_rejected_client_side():
    """The client-side torn-result guard: hand-fed chunks with differing
    epochs must refuse to splice."""
    from repro.errors import ProtocolError

    pending = PendingStream(5)
    pending.chunks.append(QueryChunk(5, False, (1,), ((1, 2),)))
    final = QueryChunk(5, True, (2,), ((3, 4),))
    pending.chunks.append(final)
    pending._resolve(final)
    with pytest.raises(ProtocolError):
        pending.result(1)


def test_request_spans_carry_the_schema_name_of_every_request_type(world):
    """One ``net.request`` span per request type, ``kind`` read from the
    wire schema — the same names the docs list as ``REQUEST_NAMES``
    (``repl_state`` / ``repl_fetch`` used to be traced as ``replstate`` /
    ``replfetch``, reconstructed from the class name)."""
    from repro.obs import trace
    from repro.obs.trace import Tracer

    server, _service, lids, pairs = world
    tracer = Tracer(enabled=True, sample_every=1, keep=64)
    with NetClient("127.0.0.1", server.port, handshake=False) as client:
        previous = trace.set_tracer(tracer)
        try:
            pending = [
                client.begin_hello(),
                client.begin_ping(),
                client.begin_refresh(),
                client.begin_lookup(lids[:2]),
                client.begin_ordinal(lids[:1]),  # W-BOX: typed error, still a span
                client.begin_compare([(lids[0], lids[1])]),
                client.begin_submit([BatchOp("lookup", (lids[0],))]),
                client.begin_repl_state(0),  # memory store: typed error
                client.begin_repl_fetch(0, proto.REPL_FETCH_WAL, 1),
                client.begin_query(proto.AXIS_DESCENDANTS, *pairs[0]),
            ]
            for item in pending:
                try:
                    item.wait(10)
                except ReproError:
                    pass
        finally:
            trace.set_tracer(previous)
    kinds = [root.labels["kind"] for root in tracer.finished if root.name == "net.request"]
    assert kinds == list(proto.REQUEST_NAMES.values())
    assert kinds[7:9] == ["repl_state", "repl_fetch"]

    # The same ten frames as ONE burst (one ``sendall``, so one ``recv``
    # server-side): every frame still gets its own span, in request order.
    burst = [
        proto.Hello(1, proto.PROTOCOL_VERSION),
        proto.Ping(2),
        proto.Refresh(3),
        proto.Lookup(4, tuple(lids[:2])),
        proto.Ordinal(5, (lids[0],)),
        proto.Compare(6, ((lids[0], lids[1]),)),
        proto.Submit(7, (BatchOp("lookup", (lids[0],)),)),
        proto.ReplState(8, 0),
        proto.ReplFetch(9, 0, proto.REPL_FETCH_WAL, 1, 0, 0),
        Query(10, proto.AXIS_DESCENDANTS, pairs[0][0], pairs[0][1], 0, 0),
    ]
    tracer = Tracer(enabled=True, sample_every=1, keep=64)
    decoder, answered = proto.FrameDecoder(), set()
    with socket.create_connection(("127.0.0.1", server.port), timeout=10) as sock:
        previous = trace.set_tracer(tracer)
        try:
            sock.sendall(b"".join(encode_frame(frame) for frame in burst))
            while len(answered) < len(burst):
                data = sock.recv(1 << 16)
                assert data, "server closed mid-burst"
                decoder.feed(data)
                answered.update(frame.request_id for frame in decoder.frames())
        finally:
            trace.set_tracer(previous)
    spans = [root for root in tracer.finished if root.name == "net.request"]
    assert [root.labels["kind"] for root in spans] == list(proto.REQUEST_NAMES.values())
    assert [root.labels["request_id"] for root in spans] == list(range(1, 11))
