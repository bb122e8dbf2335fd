"""Property-based codec tests: the live-payload block codec must round-trip
every payload the trees can legally allocate — including the adversarial
corners that fixed-width formats get wrong.

Three corners the strategies aim at deliberately:

* **max-fanout nodes** — a node filled to the capacity its ``BoxConfig``
  declares (the honesty boundary the layout proofs pin);
* **post-root-split W-BOX range origins** — every root split multiplies
  ``range_len`` by the fanout, so long-lived trees carry range origins far
  beyond 32 or even 53 bits;
* **large naive-k labels** — naive gap labels grow multiplicatively with
  ``k`` and shrink by halving, so LIDF ``(value, gap)`` pairs reach
  arbitrary magnitudes.

Every generated payload is checked twice with the same oracle: once through
the raw ``encode_block_payload``/``decode_block_payload`` pair, and once
through a real :class:`FileBackend` page file (write, commit, close, reopen,
read) — the codec and the backend must agree on what round-trips.

Rows of LIDs and block pointers are delta-coded, so they get their own
strategy: random walks with one-byte steps (the table tier), walks that
leave it, and rows alternating between 0 and ``2**bits - 1``, each
checked byte for byte against the streaming reference codec.
"""

import io

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

from repro.config import BoxConfig
from repro.core.bbox.node import BNode
from repro.core.wbox.node import WEntry, WNode
from repro.core.wbox.pairs import PairRecord
from repro.storage import FileBackend
from repro.storage.codec import decode_block_payload, encode_block_payload

from .codec_reference import decode_payload, encode_payload

RELAXED = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

# Post-root-split range origins: each split multiplies range_len by the
# fanout, so a mature tree's origins dwarf any fixed-width field.
HUGE_VALUE = st.integers(min_value=0, max_value=1 << 80)
LID = st.integers(min_value=0, max_value=1 << 48)
CONFIG = BoxConfig()
MAX_FANOUT = CONFIG.wbox_max_fanout
MAX_LEAF = CONFIG.wbox_leaf_capacity


@st.composite
def wbox_leaves(draw):
    count = draw(st.integers(min_value=0, max_value=MAX_LEAF))
    return WNode(
        0,
        draw(HUGE_VALUE),
        draw(st.integers(min_value=1, max_value=1 << 80)),
        weight=draw(st.integers(min_value=count, max_value=count + 64)),
        entries=draw(st.lists(LID, min_size=count, max_size=count)),
    )


@st.composite
def wbox_pair_leaves(draw):
    entries = []
    for lid in draw(st.lists(LID, min_size=1, max_size=MAX_LEAF)):
        record = PairRecord(lid)
        record.is_start = draw(st.booleans())
        record.partner_lid = draw(st.none() | LID)
        record.partner_block = draw(st.integers(min_value=0, max_value=1 << 32))
        record.end_value = draw(st.none() | HUGE_VALUE)
        entries.append(record)
    return WNode(
        0,
        draw(HUGE_VALUE),
        draw(st.integers(min_value=1, max_value=1 << 80)),
        weight=len(entries),
        entries=entries,
    )


@st.composite
def wbox_internals(draw):
    count = draw(st.integers(min_value=1, max_value=MAX_FANOUT))
    entries = [
        WEntry(
            draw(st.integers(min_value=1, max_value=1 << 32)),
            slot,
            draw(st.integers(min_value=1, max_value=1 << 40)),
            draw(st.integers(min_value=0, max_value=1 << 40)),
        )
        for slot in range(count)
    ]
    return WNode(
        draw(st.integers(min_value=1, max_value=60)),
        draw(HUGE_VALUE),
        draw(st.integers(min_value=1, max_value=1 << 80)),
        weight=sum(e.weight for e in entries),
        entries=entries,
    )


@st.composite
def bbox_nodes(draw):
    leaf = draw(st.booleans())
    count_cap = CONFIG.bbox_leaf_capacity if leaf else CONFIG.bbox_fanout
    entries = draw(st.lists(LID, max_size=count_cap))
    sizes = None
    if not leaf and draw(st.booleans()):
        sizes = draw(
            st.lists(
                st.integers(min_value=0, max_value=1 << 40),
                min_size=len(entries),
                max_size=len(entries),
            )
        )
    return BNode(
        leaf=leaf,
        parent=draw(st.integers(min_value=0, max_value=1 << 32)),
        entries=entries,
        sizes=sizes,
    )


# LIDF record lists: empty slots, bare ints, naive-k (value, gap) pairs of
# arbitrary magnitude, and ORDPATH component vectors (signed).
LIDF_RECORD = st.one_of(
    st.none(),
    st.integers(min_value=0, max_value=1 << 80),  # large naive-k labels
    st.tuples(HUGE_VALUE, HUGE_VALUE),
    st.lists(
        st.integers(min_value=-(1 << 40), max_value=1 << 40), min_size=1, max_size=12
    ).map(tuple),
)
LIDF_BLOCKS = st.lists(LIDF_RECORD, max_size=CONFIG.lidf_records_per_block)

PAYLOADS = st.one_of(
    wbox_leaves(), wbox_pair_leaves(), wbox_internals(), bbox_nodes(), LIDF_BLOCKS
)


def payload_fields(payload):
    """A payload as comparable plain data (the codec's observable state)."""
    if isinstance(payload, WNode):
        return (
            "wnode",
            payload.level,
            payload.range_lo,
            payload.range_len,
            payload.weight,
            [payload_fields(e) for e in payload.entries],
        )
    if isinstance(payload, WEntry):
        return ("wentry", payload.child, payload.slot, payload.weight, payload.size)
    if isinstance(payload, PairRecord):
        return (
            "pair",
            payload.lid,
            payload.is_start,
            payload.partner_lid,
            payload.partner_block,
            payload.end_value,
        )
    if isinstance(payload, BNode):
        return ("bnode", payload.leaf, payload.parent, payload.entries, payload.sizes)
    return payload


@given(payload=PAYLOADS)
@RELAXED
def test_payload_round_trips_through_codec(payload):
    image = encode_block_payload(payload)
    assert payload_fields(decode_block_payload(image)) == payload_fields(payload)


@given(payloads=st.lists(PAYLOADS, min_size=1, max_size=6))
@RELAXED
def test_payloads_round_trip_through_file_backend(payloads, tmp_path_factory):
    """The page file and the raw codec agree: whatever the codec accepts,
    a commit + reopen reproduces field-for-field."""
    directory = tmp_path_factory.mktemp("codec")
    backend = FileBackend(str(directory / "prop.pages"))
    ids = [backend.allocate(payload) for payload in payloads]
    backend.commit(ids)
    backend.close()
    reopened = FileBackend(str(directory / "prop.pages"))
    for block_id, payload in zip(ids, payloads):
        assert payload_fields(reopened.read(block_id)) == payload_fields(payload)
    reopened.close()


@st.composite
def delta_rows(draw):
    """A row for a delta-coded field: a walk of one-byte steps, a walk of
    any steps, or 0 and ``2**bits - 1`` alternating; empty rows and rows
    of one value included."""
    count = draw(st.integers(min_value=0, max_value=MAX_LEAF))
    shape = draw(st.sampled_from(["one-byte", "any", "alternating"]))
    if shape == "alternating":
        top = (1 << draw(st.integers(min_value=1, max_value=64))) - 1
        first = draw(st.booleans())
        return [top if (i % 2 == 0) == first else 0 for i in range(count)]
    step = (
        st.integers(min_value=-64, max_value=63)
        if shape == "one-byte"
        else st.integers(min_value=-(1 << 40), max_value=1 << 40)
    )
    row = [draw(LID)]
    for delta in draw(st.lists(step, min_size=count, max_size=count))[1:]:
        row.append(abs(row[-1] + delta))
    return row[:count]


@given(row=delta_rows(), empties=st.sets(st.integers(min_value=0, max_value=MAX_LEAF)))
@RELAXED
def test_delta_rows_match_the_reference_byte_for_byte(row, empties):
    """W-BOX leaves, B-BOX leaves and child pointers, and LIDF pointer
    blocks (with empty slots anywhere) encode as the reference does and
    decode back, through the one-byte tier or the generic loop."""
    block = [None if i in empties else lid for i, lid in enumerate(row)]
    for payload in (
        WNode(0, 0, 1 << 80, len(row), row),
        BNode(leaf=True, parent=1, entries=row),
        BNode(leaf=False, parent=1, entries=row, sizes=[1] * len(row)),
        block,
    ):
        reference = io.BytesIO()
        encode_payload(reference, payload)
        image = encode_block_payload(payload)
        assert image == reference.getvalue()
        assert payload_fields(decode_block_payload(image)) == payload_fields(payload)
        decoded = decode_payload(io.BytesIO(image))
        assert payload_fields(decoded) == payload_fields(payload)
