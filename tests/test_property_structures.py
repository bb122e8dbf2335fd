"""Property-based tests on the substrate: codec round trips for arbitrary
images, heap-file consistency under arbitrary alloc/free traces, and parser
round trips for generated trees."""

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

from repro.config import TINY_CONFIG, BoxConfig
from repro.storage import BlockStore, HeapFile
from .layout_images import (
    BBoxInternalImage,
    BBoxLeafImage,
    WBoxLeafImage,
    decode_bbox_internal,
    decode_bbox_leaf,
    decode_wbox_leaf,
    encode_bbox_internal,
    encode_bbox_leaf,
    encode_wbox_leaf,
)
from repro.xml.parser import parse
from repro.xml.writer import serialize

RELAXED = settings(
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

CONFIG = BoxConfig()
LID = st.integers(0, 2**32 - 1)
POINTER = st.integers(0, 2**32 - 1)


@given(
    range_lo=st.integers(0, 2**40),
    records=st.lists(st.tuples(LID, st.booleans()), max_size=64),
)
@RELAXED
def test_wbox_leaf_codec_round_trip(range_lo, records):
    image = WBoxLeafImage(
        range_lo=range_lo,
        lids=[lid for lid, _ in records],
        deleted=[dead for _, dead in records],
    )
    assert decode_wbox_leaf(encode_wbox_leaf(image, CONFIG), CONFIG) == image


@given(back_link=POINTER, lids=st.lists(LID, max_size=64))
@RELAXED
def test_bbox_leaf_codec_round_trip(back_link, lids):
    image = BBoxLeafImage(back_link=back_link, lids=lids)
    assert decode_bbox_leaf(encode_bbox_leaf(image, CONFIG), CONFIG) == image


@given(
    back_link=POINTER,
    children=st.lists(st.tuples(POINTER, st.integers(0, 2**32 - 1)), max_size=64),
)
@RELAXED
def test_bbox_internal_codec_round_trip(back_link, children):
    image = BBoxInternalImage(back_link=back_link, children=children)
    assert decode_bbox_internal(encode_bbox_internal(image, CONFIG), CONFIG) == image


@given(
    trace=st.lists(
        st.one_of(
            st.tuples(st.just("alloc"), st.integers(0, 1000)),
            st.tuples(st.just("free"), st.integers(0, 10_000)),
        ),
        max_size=80,
    )
)
@RELAXED
def test_heapfile_alloc_free_consistency(trace):
    """The heap file must always agree with a dict shadow."""
    lidf = HeapFile(BlockStore(TINY_CONFIG))
    shadow: dict[int, int] = {}
    for action, value in trace:
        if action == "alloc":
            lid = lidf.allocate(value)
            assert lid not in shadow
            shadow[lid] = value
        elif shadow:
            victim = sorted(shadow)[value % len(shadow)]
            lidf.free(victim)
            del shadow[victim]
    assert dict(lidf.scan()) == shadow
    assert len(lidf) == len(shadow)
    for lid, expected in shadow.items():
        assert lidf.read(lid) == expected


_NAME = st.from_regex(r"[A-Za-z_][A-Za-z0-9_\-]{0,8}", fullmatch=True)
_TEXT = st.text(
    alphabet=st.characters(
        blacklist_categories=("Cs", "Cc"), blacklist_characters="<>&\r"
    ),
    max_size=20,
)


@st.composite
def xml_trees(draw, depth=3):
    from repro.xml.model import Element

    element = Element(draw(_NAME))
    element.text = draw(_TEXT)
    for key in draw(st.lists(_NAME, max_size=2, unique=True)):
        element.attributes[key] = draw(_TEXT)
    if depth > 0:
        for child in draw(st.lists(xml_trees(depth=depth - 1), max_size=3)):
            element.append(child)
            child.tail = draw(_TEXT)
    return element


@given(tree=xml_trees())
@RELAXED
def test_parser_writer_round_trip(tree):
    reparsed = parse(serialize(tree))

    def assert_equal(a, b):
        assert a.name == b.name
        assert a.attributes == b.attributes
        assert a.text == b.text
        assert a.tail == b.tail
        assert len(a.children) == len(b.children)
        for x, y in zip(a.children, b.children):
            assert_equal(x, y)

    tree.tail = ""  # a root tail is not serializable content
    assert_equal(tree, reparsed)
