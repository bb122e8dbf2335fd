"""Wire-codec property tests: round-trips and fuzz totality.

Two pillars:

* **Round-trip**: every frame type survives ``encode_frame`` →
  ``FrameDecoder``/``decode_payload`` bit-exactly, for Hypothesis-generated
  contents (labels of every shape, batch-op tapes, unicode messages).
* **Totality**: for *any* byte string — random garbage, truncations,
  single-byte corruptions of valid frames, hostile length prefixes —
  decoding either returns a frame or raises the one typed
  :class:`~repro.errors.ProtocolError`.  Never another exception, never a
  hang, never unbounded buffering.  A live-server check pins the
  connection-level contract: garbage gets one ``ERR_PROTOCOL`` frame and
  a clean close, while other connections keep working.
"""

from __future__ import annotations

import socket
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import TINY_CONFIG, WBox
from repro.core.batch import SUPPORTED_KINDS, BatchOp, BatchRef
from repro.errors import ProtocolError
from repro.net import protocol as proto
from repro.net.client import NetClient
from repro.net.protocol import (
    Compare,
    Epochs,
    ErrorFrame,
    FrameDecoder,
    Hello,
    Lookup,
    Ordinal,
    Orders,
    Ping,
    Pong,
    Query,
    QueryChunk,
    Refresh,
    ReplChunk,
    ReplFetch,
    ReplManifest,
    ReplState,
    Results,
    ServerHello,
    Submit,
    Values,
    decode_payload,
    encode_frame,
    encode_payload,
)
from repro.net.server import run_server
from repro.service import ShardedLabelService

# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

request_ids = st.integers(min_value=0, max_value=2**32)
lids = st.integers(min_value=0, max_value=2**40)
epoch_numbers = st.integers(min_value=0, max_value=2**32)

label_values = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(min_value=-(2**100), max_value=2**100),
        st.text(max_size=12),
    ),
    lambda children: st.one_of(
        st.tuples(children, children),
        st.lists(children, max_size=3),
        st.tuples(children),
    ),
    max_leaves=8,
)

batch_args = st.lists(
    st.one_of(
        st.integers(min_value=0, max_value=2**32),
        st.builds(
            BatchRef,
            st.integers(min_value=0, max_value=1000),
            st.one_of(st.none(), st.integers(min_value=0, max_value=3)),
        ),
    ),
    max_size=4,
)

# BatchOp validates arity/kind at construction; build raw and filter.
batch_ops = st.builds(
    lambda kind, args: (kind, tuple(args)),
    st.sampled_from(sorted(SUPPORTED_KINDS)),
    batch_args,
).map(lambda pair: _make_op(*pair)).filter(lambda op: op is not None)


def _make_op(kind: str, args: tuple) -> BatchOp | None:
    try:
        return BatchOp(kind, args)
    except Exception:
        return None


frames = st.one_of(
    st.builds(Hello, request_ids, st.integers(min_value=0, max_value=100)),
    st.builds(Ping, request_ids),
    st.builds(Refresh, request_ids),
    st.builds(Lookup, request_ids, st.lists(lids, max_size=16).map(tuple)),
    st.builds(Ordinal, request_ids, st.lists(lids, max_size=16).map(tuple)),
    st.builds(
        Compare,
        request_ids,
        st.lists(st.tuples(lids, lids), max_size=8).map(tuple),
    ),
    st.builds(Submit, request_ids, st.lists(batch_ops, max_size=6).map(tuple)),
    st.builds(
        ServerHello,
        request_ids,
        st.integers(min_value=0, max_value=100),
        st.integers(min_value=1, max_value=64),
        st.text(max_size=16),
        st.lists(epoch_numbers, max_size=8).map(tuple),
    ),
    st.builds(Pong, request_ids),
    st.builds(Epochs, request_ids, st.lists(epoch_numbers, max_size=8).map(tuple)),
    st.builds(Values, request_ids, st.lists(label_values, max_size=8).map(tuple)),
    st.builds(
        Orders,
        request_ids,
        st.lists(st.integers(min_value=-(2**100), max_value=2**100), max_size=8).map(
            tuple
        ),
    ),
    st.builds(Results, request_ids, st.lists(label_values, max_size=8).map(tuple)),
    st.builds(
        ErrorFrame,
        request_ids,
        st.integers(min_value=1, max_value=7),
        st.text(max_size=40),
    ),
    st.builds(ReplState, request_ids, st.integers(min_value=0, max_value=63)),
    st.builds(
        ReplFetch,
        request_ids,
        st.integers(min_value=0, max_value=63),
        st.integers(min_value=0, max_value=1),
        st.integers(min_value=0, max_value=2**31),
        st.integers(min_value=0, max_value=2**40),
        st.integers(min_value=0, max_value=2**20),
    ),
    st.builds(
        ReplManifest,
        request_ids,
        st.integers(min_value=0, max_value=63),
        st.integers(min_value=1, max_value=2**31),
        st.lists(st.integers(min_value=1, max_value=2**31), max_size=8).map(tuple),
        st.integers(min_value=0, max_value=2**31),
        st.integers(min_value=0, max_value=2**40),
        epoch_numbers,
        st.integers(min_value=0, max_value=2**40),
    ),
    st.builds(
        ReplChunk,
        request_ids,
        st.booleans(),
        st.integers(min_value=0, max_value=2**40),
        st.binary(max_size=64),
    ),
    st.builds(
        Query,
        request_ids,
        st.integers(min_value=0, max_value=3),
        lids,
        lids,
        st.integers(min_value=0, max_value=2**16),
        st.integers(min_value=0, max_value=2**20),
    ),
    st.builds(
        QueryChunk,
        request_ids,
        st.booleans(),
        st.lists(epoch_numbers, max_size=8).map(tuple),
        st.lists(st.tuples(lids, lids), max_size=8).map(tuple),
    ),
)


# ---------------------------------------------------------------------------
# round-trips
# ---------------------------------------------------------------------------


@given(frames)
def test_every_frame_round_trips(frame):
    assert decode_payload(encode_payload(frame)) == frame


@given(st.lists(frames, min_size=1, max_size=8))
def test_frame_stream_round_trips_through_decoder(stream):
    wire = b"".join(encode_frame(frame) for frame in stream)
    decoder = FrameDecoder()
    decoder.feed(wire)
    assert list(decoder.frames()) == stream
    decoder.close()  # nothing pending: clean EOF


@given(st.lists(frames, min_size=1, max_size=5), st.integers(1, 7))
def test_decoder_is_chunking_invariant(stream, chunk):
    """Byte-at-a-time, odd chunk sizes — reassembly must not care."""
    wire = b"".join(encode_frame(frame) for frame in stream)
    decoder = FrameDecoder()
    out = []
    for start in range(0, len(wire), chunk):
        decoder.feed(wire[start:start + chunk])
        out.extend(decoder.frames())
    assert out == stream


# ---------------------------------------------------------------------------
# totality: garbage, truncation, corruption, oversize
# ---------------------------------------------------------------------------


@given(st.binary(max_size=200))
def test_decode_payload_is_total(data):
    """Any byte string: a frame or ProtocolError, nothing else."""
    try:
        decode_payload(data)
    except ProtocolError:
        pass


@given(st.binary(max_size=400), st.integers(1, 9))
def test_decoder_is_total_on_garbage_streams(data, chunk):
    decoder = FrameDecoder(max_frame_bytes=1 << 12)
    try:
        for start in range(0, len(data), chunk):
            decoder.feed(data[start:start + chunk])
            for _ in decoder.frames():
                pass
        decoder.close()
    except ProtocolError:
        pass
    # Bounded buffering even on garbage: never beyond a full frame + prefix.
    assert decoder.buffered <= (1 << 12) + proto.MAX_VARINT_BYTES


@given(frames, st.data())
def test_truncated_frames_are_typed_errors(frame, data):
    payload = encode_payload(frame)
    if not payload:
        return
    cut = data.draw(st.integers(0, len(payload) - 1))
    try:
        decode_payload(payload[:cut])
    except ProtocolError:
        pass
    # Stream side: an EOF mid-frame is a typed violation, not a hang.
    decoder = FrameDecoder()
    decoder.feed(encode_frame(frame)[: cut + 1])
    for _ in decoder.frames():
        pass
    if decoder.buffered:
        with pytest.raises(ProtocolError):
            decoder.close()


@given(frames, st.data())
def test_corrupted_frames_never_escape_typed_errors(frame, data):
    payload = bytearray(encode_payload(frame))
    if not payload:
        return
    index = data.draw(st.integers(0, len(payload) - 1))
    payload[index] ^= data.draw(st.integers(1, 255))
    try:
        decode_payload(bytes(payload))
    except ProtocolError:
        pass  # mutation detected; decoding to some other frame is also fine


def test_oversized_length_prefix_rejected_before_buffering():
    decoder = FrameDecoder(max_frame_bytes=1024)
    wire = bytearray()
    value = 1 << 30  # announces a gigantic frame
    while value > 0x7F:
        wire.append((value & 0x7F) | 0x80)
        value >>= 7
    wire.append(value)
    decoder.feed(bytes(wire))
    with pytest.raises(ProtocolError):
        list(decoder.frames())


def test_never_ending_varint_prefix_rejected():
    decoder = FrameDecoder()
    decoder.feed(b"\xff" * proto.MAX_VARINT_BYTES)
    with pytest.raises(ProtocolError):
        list(decoder.frames())


def test_trailing_garbage_is_a_typed_error():
    payload = encode_payload(Ping(7)) + b"\x00"
    with pytest.raises(ProtocolError):
        decode_payload(payload)


def test_unknown_frame_type_is_a_typed_error():
    with pytest.raises(ProtocolError):
        decode_payload(bytes([0x7F, 0x01]))


def test_value_nesting_bomb_is_a_typed_error():
    deep = 0
    for _ in range(proto.MAX_VALUE_DEPTH + 2):
        deep = (deep,)
    out = bytearray()
    with pytest.raises(ProtocolError):
        proto.encode_value(out, deep)


def test_element_count_bomb_is_a_typed_error():
    # A Lookup announcing 2**30 LIDs in a 10-byte payload.
    body = bytearray()
    proto._append_uvarint(body, proto.T_LOOKUP)
    proto._append_uvarint(body, 1)
    proto._append_uvarint(body, 1 << 30)
    with pytest.raises(ProtocolError):
        decode_payload(bytes(body))


def test_oversized_frame_refused_at_encode_time():
    with pytest.raises(ProtocolError):
        encode_frame(Lookup(1, tuple(range(proto.MAX_FRAME_BYTES))))


# ---------------------------------------------------------------------------
# server-side contract: typed error frame + clean close, others unaffected
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def live_server():
    scheme = WBox(TINY_CONFIG)
    scheme.bulk_load(32)
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


def _recv_all(sock: socket.socket, deadline: float = 10.0) -> bytes:
    sock.settimeout(deadline)
    chunks = []
    try:
        while True:
            data = sock.recv(4096)
            if not data:
                break
            chunks.append(data)
    except TimeoutError:
        pytest.fail("server neither answered nor closed (hang)")
    return b"".join(chunks)


@settings(max_examples=25, deadline=None)
@given(st.binary(min_size=1, max_size=64))
def test_garbage_connection_gets_typed_error_and_close(live_server, garbage):
    """Fuzz the live socket: every garbage prefix ends in either a normal
    response stream or one ERR_PROTOCOL frame followed by EOF."""
    with socket.create_connection(("127.0.0.1", live_server.port), timeout=10) as sock:
        sock.sendall(garbage)
        sock.shutdown(socket.SHUT_WR)
        raw = _recv_all(sock)
    decoder = FrameDecoder()
    decoder.feed(raw)
    got = list(decoder.frames())
    errors = [f for f in got if isinstance(f, ErrorFrame)]
    for frame in errors:
        assert frame.code in (proto.ERR_PROTOCOL, proto.ERR_BAD_REQUEST)
    # Whatever happened, the server's own reply stream is well-formed.
    decoder.close()
    # And the server is still alive for a well-behaved client.
    with NetClient("127.0.0.1", live_server.port) as client:
        assert client.lookup([0]) == [0]
