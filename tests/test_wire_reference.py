"""The generated frame codecs against the generic reference walk.

Each ``@wire`` row of :mod:`repro.net.protocol` composes its own encoder
and decoder, and the decoder reads in place by offset from a larger
buffer.  :mod:`tests.wire_reference` keeps the generic ``_Reader`` walk
they replaced.  For every frame the Hypothesis ``frames`` strategy
draws:

* the generated encode equals the reference encode byte for byte;
* on the valid payload, a truncation of it, a one-byte corruption of it,
  bytes spliced into it (over-long varints among them) and on random
  garbage, the generated decode and the reference decode either return
  equal frames or both raise :class:`~repro.errors.ProtocolError` — also
  when the payload sits between other bytes and is decoded by offset.
"""

from __future__ import annotations

from hypothesis import example, given
from hypothesis import strategies as st

from repro.errors import ProtocolError
from repro.net import protocol as proto

from . import wire_reference as reference
from .test_net_protocol import frames


def _outcome(decode, *args):
    """The decoded frame, or ``ProtocolError`` — any other exception fails."""
    try:
        return decode(*args)
    except ProtocolError:
        return ProtocolError


def _assert_same_decode(payload: bytes, before: bytes, after: bytes) -> None:
    expected = _outcome(reference.decode_payload, payload)
    assert _outcome(proto.decode_payload, payload) == expected
    buf = bytearray(before + payload + after)
    start = len(before)
    assert _outcome(proto.decode_payload, buf, start, start + len(payload)) == expected


def test_the_reference_declares_every_frame_of_the_schema():
    assert set(reference.LAYOUT) == set(proto.SCHEMA)
    for cls, codecs in reference.LAYOUT.items():
        assert len(codecs) == len(proto.SCHEMA[cls].fields)


@given(frames)
def test_generated_encode_is_byte_identical_to_the_reference(frame):
    payload = reference.encode_payload(frame)
    assert proto.encode_payload(frame) == payload
    prefix = bytearray()
    reference._append_uvarint(prefix, len(payload))
    assert proto.encode_frame(frame) == bytes(prefix) + payload


junk = st.binary(max_size=6)
#: Spliced into a payload: short garbage, or a varint one byte past a bound.
splices = st.one_of(
    st.binary(min_size=1, max_size=4),
    st.sampled_from([proto.MAX_VARINT_BYTES, proto.MAX_VALUE_VARINT_BYTES]).map(
        lambda width: b"\xff" * width + b"\x01"
    ),
)


variants = st.sampled_from(["valid", "truncated", "corrupted", "spliced"])


@given(frames, variants, junk, junk, st.data())
def test_generated_decode_agrees_with_the_reference(frame, variant, before, after, data):
    payload = bytearray(reference.encode_payload(frame))
    index = data.draw(st.integers(0, len(payload) - 1))
    if variant == "truncated":
        del payload[index:]
    elif variant == "corrupted":
        payload[index] ^= data.draw(st.integers(1, 255))
    elif variant == "spliced":
        payload[index:index] = data.draw(splices)
    _assert_same_decode(bytes(payload), before, after)


# A Values count that outruns its items; an 11-byte LID; a 33-byte Orders
# entry; a ReplChunk flag of 2; a LID cut two bytes into a varint.
@example(bytes.fromhex("840101020102"), b"", b"")
@example(bytes.fromhex("040101") + b"\xff" * 10 + b"\x01", b"", b"\x00")
@example(bytes.fromhex("85010101") + b"\xff" * 32 + b"\x01", b"\x01", b"")
@example(bytes.fromhex("890101020000"), b"", b"")
@example(bytes.fromhex("0401018080"), b"", b"")
@given(st.binary(max_size=200), junk, junk)
def test_generated_decode_agrees_with_the_reference_on_garbage(payload, before, after):
    _assert_same_decode(payload, before, after)
