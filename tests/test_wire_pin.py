"""Wire pin: committed bytes for one instance of every frame type.

The wire twin of ``tests/test_format_pin.py``.  Each golden below is
``encode_frame(frame).hex()`` captured from the commit *before* the wire
format moved behind the one schema table (PR 15's parent), when 20
hand-written ``isinstance`` arms produced it.  Every change since must
reproduce the bytes exactly and decode them back to the same frame —
``PROTOCOL_VERSION`` is still 1, so a peer built from any earlier commit
must keep interoperating.

Regenerate a golden only for a deliberate, version-bumping format change.

The second half pins the one thing about those bytes that is a bound, not
a layout: which integers travel.  Encoder and decoder share the limits,
so a value either round-trips or is refused *before* it is sent — a label
too wide for the wire fails its own request, never the connection.
"""

import pytest

from repro import TINY_CONFIG, NaiveScheme
from repro.core.batch import BatchOp, BatchRef
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
from repro.net.server import serve_in_thread
from repro.service import ShardedLabelService

GOLDEN = [
    (Hello(1, 1), "03010101"),
    (Ping(2), "020202"),
    (Refresh(300), "0303ac02"),
    (Lookup(4, (0, 1, 127, 128, 2**40)), "0e04040500017f8001808080808020"),
    (Ordinal(5, (7, 16384)), "0705050207808001"),
    (Compare(6, ((0, 2), (4, 2), (2**32, 1))), "0d06060300020402808080801001"),
    (
        Submit(
            7,
            (
                BatchOp("insert_before", (5,)),
                BatchOp("delete", (9,)),
                BatchOp("lookup", (3,)),
            ),
        ),
        "0f070703040100050601000900010003",
    ),
    (
        # A tape whose later ops name earlier results by BatchRef.
        Submit(
            70000,
            (
                BatchOp("insert_element_before", (12,)),
                BatchOp("insert_before", (BatchRef(0, 1),)),
                BatchOp("delete_element", (BatchRef(0, 0), BatchRef(0, 1))),
                BatchOp("lookup", (BatchRef(1),)),
            ),
        ),
        "1b07f0a204040501000c040101000207020100010100020001010100",
    ),
    (ReplState(8, 3), "03080803"),
    (ReplFetch(9, 1, 1, 17, 2**33, 65536), "0d09090101118080808020808004"),
    (Query(10, 3, 1000, 1001, 4, 256), "0a0a0a03e807e907048002"),
    (
        ServerHello(11, 1, 4, "wbox-ordinal é", (0, 5, 2**32, 9)),
        "1e81010b01040f77626f782d6f7264696e616c20c3a9040005808080801009",
    ),
    (Pong(12), "0382010c"),
    (Epochs(13, (1, 200, 30000)), "0a83010d0301c801b0ea01"),
    (
        Values(14, (0, 1023, -5, 2**60, None, True, False)),
        "1a84010e07010001fe0f0109018080808080808080200005010500",
    ),
    (
        # Nested label shapes: tuples in tuples, lists, strings, empties.
        Values(
            15,
            ((1, (2, 3)), [4, [5, None]], "labél", (), (((-1,),),), (2**64, "x", [True])),
        ),
        "3d84010f0602020102020201040106030201080302010a0004066c6162c3a96c02000201"
        "0201020101010203018080808080808080800404017803010501",
    ),
    (Orders(16, (-1, 0, 1, 2**40, -(2**40))), "1385011005010002808080808040ffffffffff3f"),
    (
        Results(17, (None, (40, 41), 7, [1, 2], "ok")),
        "178601110500020201500152010e03020102010404026f6b",
    ),
    (
        ErrorFrame(18, 5, "unknown LID 99 — gone"),
        "1c8701120517756e6b6e6f776e204c494420393920e2809420676f6e65",
    ),
    (
        ReplManifest(19, 2, 7, (1, 2, 3, 6), 4, 123456, 88, 4096),
        "118801130207040102030604c0c407588020",
    ),
    (
        ReplChunk(20, True, 2**20, bytes(range(0, 256, 5))),
        "3c890114018080403400050a0f14191e23282d32373c41464b50555a5f64696e73787d82"
        "878c91969ba0a5aaafb4b9bec3c8cdd2d7dce1e6ebf0f5faff",
    ),
    (
        QueryChunk(21, False, (3, 4), ((10, 11), (12, 2**35), (14, 15))),
        "138a011500020304030a0b0c8080808080010e0f",
    ),
]

IDS = [type(frame).__name__ + str(frame.request_id) for frame, _ in GOLDEN]


def test_every_frame_type_is_pinned():
    assert {type(frame) for frame, _ in GOLDEN} == set(proto.SCHEMA)
    assert proto.PROTOCOL_VERSION == 1


@pytest.mark.parametrize("frame,golden", GOLDEN, ids=IDS)
def test_encode_reproduces_the_golden_bytes(frame, golden):
    assert encode_frame(frame).hex() == golden


@pytest.mark.parametrize("frame,golden", GOLDEN, ids=IDS)
def test_golden_bytes_decode_to_the_frame(frame, golden):
    decoder = FrameDecoder()
    decoder.feed(bytes.fromhex(golden))
    assert list(decoder.frames()) == [frame]
    decoder.close()


# ---------------------------------------------------------------------------
# integer bounds: one limit per kind, shared by encoder and decoder
# ---------------------------------------------------------------------------

WIDE = [-(2**64), -(2**63) - 1, 2**64, 2**90, -(2**200), 2**223 - 1]


@pytest.mark.parametrize("value", WIDE)
def test_value_ints_round_trip_past_a_machine_word(value):
    for frame in (Values(1, (value, (value, [value]))), Orders(2, (value, 0))):
        assert decode_payload(encode_payload(frame)) == frame


def test_encoder_refuses_exactly_what_the_decoder_refuses():
    value_limit = 1 << (7 * proto.MAX_VALUE_VARINT_BYTES - 1)
    for frame in (Values(1, (value_limit,)), Orders(1, (-value_limit - 1,))):
        with pytest.raises(ProtocolError):
            encode_payload(frame)
    # Structural fields (ids, LIDs, counts) stop at MAX_VARINT_BYTES.
    lid_limit = 1 << (7 * proto.MAX_VARINT_BYTES)
    assert decode_payload(encode_payload(Lookup(1, (lid_limit - 1,)))).lids == (lid_limit - 1,)
    with pytest.raises(ProtocolError):
        encode_payload(Lookup(1, (lid_limit,)))
    with pytest.raises(ProtocolError):
        encode_payload(Lookup(1, (-1,)))
    eleven_bytes = bytes([0x04, 0x01, 0x01]) + b"\x80" * proto.MAX_VARINT_BYTES + b"\x01"
    with pytest.raises(ProtocolError):
        decode_payload(eleven_bytes)


@pytest.mark.parametrize("gap_bits", [80, 300])
def test_wide_labels_over_a_live_socket_never_kill_the_connection(gap_bits):
    """``naive-80`` labels (~91 bits) are past what the old decoder read:
    the reply used to kill the client's reader thread.  Now they travel;
    a label past the shared bound (``naive-300``) is a typed error on
    that one request and the connection carries on."""
    scheme = NaiveScheme(gap_bits, TINY_CONFIG)
    lids = scheme.bulk_load(8)
    labels = [scheme.lookup(lid) for lid in lids]
    service = ShardedLabelService([scheme]).start()
    holder, thread = serve_in_thread(service)
    try:
        with NetClient("127.0.0.1", holder["server"].port) as client:
            if gap_bits == 80:
                assert client.lookup(lids) == labels
            else:
                with pytest.raises(ProtocolError, match="cannot encode"):
                    client.lookup(lids, timeout=10)
            client.ping(timeout=10)
            assert client.compare([(lids[0], lids[1])], timeout=10) == [-1]
    finally:
        holder["stop"]()
        thread.join(10)
        service.close()
