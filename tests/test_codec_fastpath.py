"""Byte-identity rail for the packed-row block codec.

``repro.storage.codec`` is the one production codec (``bytearray``
append tiers on encode, index scans on decode).  Its oracle is the
streaming implementation it replaced — ``tests/codec_reference.py``, one
``BinaryIO`` round trip per byte, sharing no code with production.  The
packed codec is an *optimization of the wire format's producer*, not a
format change — so every test here pins the same property from a
different angle: for any payload, packed and reference must emit the
same bytes, decode the same bytes to equal objects, and reject the same
malformed input with the same exception type.

The payload zoo deliberately straddles the packed encoder's width tiers
(all-one-byte rows, all-two-byte rows, mixed rows, >2**14 values that
fall off the table, 2**50 magnitudes) and every kind tag / LIDF slot tag,
including the long signed ORDPATH component vectors whose decode the
satellite fix (list preallocation instead of a generator inside
``tuple()``) targets.  Delta rows (LIDs and block pointers) get runs
that stay in the one-byte delta tier, descending runs (negative
deltas), rows alternating between 0 and a field's widest value, and
rows of no value and of one.
"""

import io

import pytest

from repro.core.bbox.node import BNode
from repro.core.wbox.node import WEntry, WNode
from repro.core.wbox.pairs import PairRecord
from repro.errors import PersistError
from repro.storage.codec import (
    decode_block_payload,
    decode_block_payload_at,
    encode_block_payload,
    uvarint_bytes,
)

from .codec_reference import decode_payload, encode_payload, write_uvarint


def reference_encode(payload):
    stream = io.BytesIO()
    encode_payload(stream, payload)
    return stream.getvalue()


def reference_decode(image):
    return decode_payload(io.BytesIO(image))


#: ``fast`` parametrizations pick the implementation under test.
ENCODERS = {True: encode_block_payload, False: reference_encode}
DECODERS = {True: decode_block_payload, False: reference_decode}


def _pair_record(lid, is_start, partner_lid, partner_block, end_value):
    record = PairRecord(lid)
    record.is_start = is_start
    record.partner_lid = partner_lid
    record.partner_block = partner_block
    record.end_value = end_value
    return record


def _payload_zoo():
    """Representative payloads spanning every kind tag and width tier."""
    zoo = {
        # W-BOX leaves: one-byte tier, two-byte tier, mixed, huge values.
        "wleaf-empty": WNode(0, 0, 16, 0, []),
        "wleaf-small": WNode(0, 8, 16, 4, [3, 0, 127, 64]),
        "wleaf-two-byte": WNode(0, 0, 1 << 20, 3, [0x80, 0x3FFF, 0x1234]),
        "wleaf-mixed": WNode(0, 0, 1 << 20, 6, [1, 0x80, 0x7F, 0x3FFF, 0, 5]),
        "wleaf-huge": WNode(0, 0, 1 << 60, 3, [2**50, 7, 2**33 + 1]),
        # W-BOX pair leaf (W-BOX-O): optional fields in both states.
        "wpairleaf": WNode(
            0,
            0,
            256,
            3,
            [
                _pair_record(5, True, 6, 2, 99),
                _pair_record(6, False, None, 0, None),
                _pair_record(2**40, True, 0, 2**20, 2**35),
            ],
        ),
        # W-BOX internal: 4-wide rows through each tier.
        "wint-small": WNode(2, 0, 4096, 12, [WEntry(3, 0, 6, 2), WEntry(9, 1, 6, 4)]),
        "wint-wide": WNode(
            1,
            1 << 30,
            1 << 16,
            1000,
            [WEntry(0x80 + i, i, 0x3000 + i, 2**30 + i) for i in range(8)],
        ),
        # B-BOX nodes: leaf, internal with and without the sizes row.
        "bleaf": BNode(leaf=True, parent=7, entries=[1, 200, 0x4000, 0]),
        "bint-no-sizes": BNode(leaf=False, parent=0, entries=[4, 5, 6], sizes=None),
        "bint-sizes": BNode(
            leaf=False, parent=3, entries=[10, 11, 12], sizes=[0, 2**20, 7]
        ),
        # LIDF directory blocks: every slot tag, including long signed
        # ORDPATH component vectors (the satellite-1 decode target).
        "lidf-mixed": [
            None,
            0,
            2**50,
            (3, 0x200),
            (1, -5, 9),  # negative component: _S_SEQ, not _S_PAIR
            (2, 4, 6, 8),
            tuple(range(-64, 64)),  # long mixed-sign vector
            (),
        ],
        "lidf-long-seq": [tuple((-1) ** i * (i * 37) for i in range(500))],
        "lidf-empty": [],
        "lidf-all-empty": [None] * 40,
        # Delta rows: one-byte tier, negative deltas, alternating extremes,
        # one value, and the step from the tier into the generic loop.
        "wleaf-run": WNode(0, 0, 1 << 20, 240, list(range(70_000, 70_240))),
        "wleaf-descending": WNode(0, 0, 1 << 20, 100, list(range(5_000, 4_900, -1))),
        "wleaf-tier-edge": WNode(0, 0, 256, 5, [200, 263, 199, 263, 327]),
        "wleaf-alternating": WNode(0, 0, 1 << 33, 9, [0, 2**32 - 1] * 4 + [0]),
        "wleaf-one": WNode(0, 0, 16, 1, [2**40]),
        "bleaf-run": BNode(leaf=True, parent=3, entries=list(range(900, 1148))),
        "bleaf-alternating": BNode(leaf=True, parent=3, entries=[2**32 - 1, 0] * 5),
        "bint-run": BNode(
            leaf=False, parent=0, entries=list(range(40, 164)), sizes=[2] * 124
        ),
        "lidf-pointer-run": [17] * 60 + [None, None] + [18] * 58 + [None],
        "lidf-pointer-descending": [None] + list(range(300, 180, -1)),
        "lidf-pointer-alternating": [0, 2**32 - 1] * 61,
        "lidf-pointer-one": [2**32 - 1],
        "lidf-pointers-and-pairs": [5, 5, (5, 7), 6, None, (0, 0), 4],
    }
    return zoo


ZOO = _payload_zoo()


def _equal_payload(left, right):
    """Structural equality across the payload types (no __eq__ on nodes)."""
    if isinstance(left, WNode):
        if not isinstance(right, WNode):
            return False
        if (left.level, left.range_lo, left.range_len, left.weight) != (
            right.level,
            right.range_lo,
            right.range_len,
            right.weight,
        ):
            return False
        if len(left.entries) != len(right.entries):
            return False
        for a, b in zip(left.entries, right.entries):
            if isinstance(a, WEntry):
                if (a.child, a.slot, a.weight, a.size) != (
                    b.child,
                    b.slot,
                    b.weight,
                    b.size,
                ):
                    return False
            elif isinstance(a, PairRecord):
                if (
                    a.lid,
                    a.is_start,
                    a.partner_lid,
                    a.partner_block,
                    a.end_value,
                ) != (b.lid, b.is_start, b.partner_lid, b.partner_block, b.end_value):
                    return False
            elif a != b:
                return False
        return True
    if isinstance(left, BNode):
        return (
            isinstance(right, BNode)
            and left.leaf == right.leaf
            and left.parent == right.parent
            and left.entries == right.entries
            and left.sizes == right.sizes
        )
    return left == right


@pytest.mark.parametrize("name", sorted(ZOO))
def test_fast_and_slow_encode_byte_identical(name):
    payload = ZOO[name]
    assert encode_block_payload(payload) == reference_encode(payload)


@pytest.mark.parametrize("name", sorted(ZOO))
def test_round_trip_all_codec_combinations(name):
    """Encode with either codec, decode with either codec: same object."""
    payload = ZOO[name]
    for encode_fast in (True, False):
        image = ENCODERS[encode_fast](payload)
        for decode_fast in (True, False):
            decoded = DECODERS[decode_fast](image)
            assert _equal_payload(payload, decoded), (
                f"{name}: encode_fast={encode_fast} decode_fast={decode_fast}"
            )


@pytest.mark.parametrize("name", sorted(ZOO))
def test_decode_accepts_memoryview(name):
    """The decoder is buffer-agnostic: a view decodes like the bytes."""
    payload = ZOO[name]
    image = encode_block_payload(payload)
    decoded = decode_block_payload(memoryview(image))
    assert _equal_payload(payload, decoded)


def test_decode_from_memoryview_holds_no_reference(name="lidf-mixed"):
    """Decoded payloads must survive the view's buffer being released."""
    image = bytearray(encode_block_payload(ZOO[name]))
    view = memoryview(image)
    decoded = decode_block_payload(view)
    view.release()  # raises BufferError if the decode kept a sub-view
    assert _equal_payload(ZOO[name], decoded)


def test_uvarint_bytes_matches_stream_writer():
    probes = [0, 1, 0x7F, 0x80, 0x3FFF, 0x4000, 2**20, 2**50 + 3]
    for value in probes:
        stream = io.BytesIO()
        write_uvarint(stream, value)
        assert uvarint_bytes(value) == stream.getvalue()
    with pytest.raises(PersistError):
        uvarint_bytes(-1)


@pytest.mark.parametrize("fast", [True, False])
def test_negative_row_value_raises(fast):
    with pytest.raises(PersistError):
        ENCODERS[fast](WNode(0, 0, 16, 1, [-3]))
    with pytest.raises(PersistError):
        ENCODERS[fast]([3, -1])  # an LIDF pointer


@pytest.mark.parametrize("fast", [True, False])
def test_unsupported_payload_raises(fast):
    with pytest.raises(PersistError):
        ENCODERS[fast]({"not": "a payload"})
    with pytest.raises(PersistError):
        ENCODERS[fast]([object()])  # bad LIDF record


@pytest.mark.parametrize("fast", [True, False])
def test_truncated_image_raises(fast):
    image = encode_block_payload(ZOO["lidf-long-seq"])
    for cut in (1, len(image) // 2, len(image) - 1):
        with pytest.raises(PersistError):
            DECODERS[fast](image[:cut])


@pytest.mark.parametrize("fast", [True, False])
def test_unknown_kind_and_slot_tags_raise(fast):
    with pytest.raises(PersistError):
        DECODERS[fast](bytes([99]))  # unknown block kind
    # _K_LIDF block with one record: an empty-slot tag with a payload.
    with pytest.raises(PersistError):
        DECODERS[fast](bytes([6, 1, 4]))


def test_streaming_seq_decode_matches_fast():
    """Satellite pin: the reference decoder's preallocated _S_SEQ loop
    (the generator-inside-tuple() fix) agrees with the packed scanner on
    a long component vector."""
    vector = [tuple(((-1) ** i) * (i**2) for i in range(1000))]
    image = reference_encode(vector)
    assert reference_decode(image) == vector
    assert decode_block_payload(image) == vector


# ----------------------------------------------------------------------
# malformed input: packed and reference fail alike
# ----------------------------------------------------------------------


def _failure_type(decode, image):
    try:
        decode(image)
    except Exception as error:  # noqa: BLE001 - the type is the assertion
        return type(error)
    return None


@pytest.mark.parametrize("name", sorted(ZOO))
def test_every_truncation_fails_alike(name):
    """Every strict prefix of a payload image is rejected — by both
    decoders, with the same exception type (a page image can be cut
    anywhere by a torn write)."""
    image = encode_block_payload(ZOO[name])
    for cut in range(len(image)):
        prefix = image[:cut]
        assert _failure_type(decode_block_payload, prefix) is PersistError, cut
        assert _failure_type(reference_decode, prefix) is PersistError, cut


def _count_bombs():
    """One image per element count in the decoder, each claiming 2**40
    elements it does not carry."""
    bomb = uvarint_bytes(1 << 40)
    return {
        "wleaf-entries": bytes([1, 0, 16, 0]) + bomb,
        "wpairleaf-records": bytes([3, 0, 16, 0]) + bomb,
        "wint-entries": bytes([2, 1, 0, 16, 0]) + bomb,
        "bleaf-entries": bytes([4, 0]) + bomb,
        "bint-entries": bytes([5, 0]) + bomb,
        # one real entry, sizes flag set, but the sizes row is missing
        "bint-sizes": bytes([5, 0, 1, 7, 1]),
        "lidf-records": bytes([6]) + bomb,
        # a multi-byte SEQ head: the length rides in the head
        "lidf-seq-length": bytes([6, 1]) + uvarint_bytes(1 << 42 | 3),
    }


@pytest.mark.parametrize("name", sorted(_count_bombs()))
def test_count_bomb_is_refused_before_allocation(name):
    """A count larger than the bytes that remain is corrupt; the packed
    decoder must say so instead of preallocating a row from it (2**40
    slots is a MemoryError, smaller bombs are gigabytes first)."""
    image = _count_bombs()[name]
    assert _failure_type(decode_block_payload, image) is PersistError
    # The reference preallocates exactly one row — the _S_SEQ vector, the
    # satellite fix it is kept verbatim with — so it is no oracle there.
    if name != "lidf-seq-length":
        assert _failure_type(reference_decode, image) is PersistError


def test_count_bomb_uses_bytes_remaining_after_offset():
    """The bound is the bytes left *after* the payload's offset, not the
    buffer length: snapshot bodies decode payloads mid-buffer."""
    padding = bytes(64)
    bomb = bytes([4, 0, 40])  # B-BOX leaf claiming 40 entries, none present
    with pytest.raises(PersistError, match="exceeds"):
        decode_block_payload_at(padding + bomb, len(padding))


# ----------------------------------------------------------------------
# delta rows: the one-byte tier, the generic loop, and hostile steps
# ----------------------------------------------------------------------

ONE_BYTE_ROWS = {
    "ascending": list(range(10_000, 10_200)),
    "descending": list(range(10_200, 10_000, -1)),
    "widest-one-byte-steps": [1000 + (63 if i % 2 else 0) for i in range(101)],
    "one": [12],
}


@pytest.mark.parametrize("name", sorted(ONE_BYTE_ROWS))
def test_one_byte_tier_decodes_like_the_generic_loop(name):
    """A row whose deltas all fit a byte decodes through the table tier;
    the same row with one far value after it decodes through the generic
    loop.  Both give the row back, as the byte-at-a-time reference does."""
    row = ONE_BYTE_ROWS[name]
    for tail in ([], [row[-1] + 10**6]):
        values = row + tail
        for payload, entries in (
            (WNode(0, 0, 1 << 40, len(values), values), lambda n: n.entries),
            (BNode(leaf=True, parent=1, entries=values), lambda n: n.entries),
            (values + [None], lambda block: block[:-1]),
            (values + [(1, 2)], lambda block: block[:-1]),  # a PAIR: generic loop
        ):
            image = encode_block_payload(payload)
            assert image == reference_encode(payload)
            assert entries(decode_block_payload(image)) == values
            assert entries(reference_decode(image)) == values


def _steps_below_zero():
    """Images whose deltas take a value below zero: one-byte and
    multi-byte deltas in each kind of delta row."""
    minus_5, minus_1000 = uvarint_bytes(9), uvarint_bytes(1999)  # zigzag
    return {
        "wleaf-one-byte": bytes([1, 0, 16, 0, 2, 3]) + minus_5,
        "wleaf-multi-byte": bytes([1, 0, 16, 0, 2, 3]) + minus_1000,
        "bleaf-one-byte": bytes([4, 0, 2, 3]) + minus_5,
        "bint-multi-byte": bytes([5, 0, 2, 3]) + minus_1000 + bytes([0]),
        "lidf-one-byte-head": bytes([6, 2, 1, 4 * 9 + 1]),
        "lidf-multi-byte-head": bytes([6, 2, 1]) + uvarint_bytes(4 * 1999 + 1),
    }


@pytest.mark.parametrize("name", sorted(_steps_below_zero()))
def test_a_step_below_zero_is_refused(name):
    image = _steps_below_zero()[name]
    assert _failure_type(decode_block_payload, image) is PersistError
    assert _failure_type(reference_decode, image) is PersistError
