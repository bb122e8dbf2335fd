"""Each structural operator touches O((|A|+|D|)·⌈log₂ n⌉ + output) view
positions, at every nesting depth.

An ancestor's descendants are one range of the
:class:`~repro.query.streams.EpochView`'s start-sorted array, so a
containment join, semijoin, count or twig step needs a few bisections per
element, not a walk of the range.  The count here is every position read
from the view's three arrays (pairs, start keys, end keys), bisection
probes included, so it is host-independent; an operator's bisections of
its own sorted position lists read no view array and are not counted.

Two documents: a chain of 2,000 nested ``a`` over one ``d``, where each
ancestor's range holds every inner ancestor (walking every range reads
2,025,001 positions against a bound of 24,011), and the fixed-seed XMark
site of ``test_query_one_read.py`` (400 items, seed 11: 18,010 elements),
which never self-nests.
"""

from __future__ import annotations

import math

import pytest

from repro import BoxConfig, LabeledDocument, WBox
from repro.query import (
    TwigNode,
    containment,
    containment_count,
    containment_join,
    containment_semijoin,
    streams,
    twig,
    twig_match,
)
from repro.xml.model import Element
from repro.xml.xmark import xmark_document

CONFIG = BoxConfig(block_bytes=1024)
DEPTH = 2000

OPERATORS = {
    "join": lambda doc, a, d: containment_join(
        doc, doc.root.find_all(a), doc.root.find_all(d)
    ),
    "semijoin": lambda doc, a, d: containment_semijoin(
        doc, doc.root.find_all(a), doc.root.find_all(d)
    ),
    "count": lambda doc, a, d: containment_count(
        doc, doc.root.find_all(a), doc.root.find_all(d)
    ),
    "twig": lambda doc, a, d: twig_match(doc, TwigNode(a, [TwigNode(d)])),
}


def chain() -> tuple[Element, str, str]:
    root = node = Element("a")
    for _ in range(DEPTH - 1):
        node = node.make_child("a")
    node.make_child("d")
    return root, "a", "d"


def site() -> tuple[Element, str, str]:
    return xmark_document(400, seed=11), "item", "mail"


class CountingArray(list):
    """A view array that counts every position read from it."""

    def __init__(self, items, counter: list[int]) -> None:
        super().__init__(items)
        self.counter = counter

    def __getitem__(self, index):
        item = super().__getitem__(index)
        self.counter[0] += len(item) if isinstance(index, slice) else 1
        return item

    def __iter__(self):
        for item in super().__iter__():
            self.counter[0] += 1
            yield item


@pytest.fixture(scope="module", params=[chain, site], ids=["chain", "xmark"])
def document(request):
    root, ancestor, descendant = request.param()
    return LabeledDocument(WBox(CONFIG), root), ancestor, descendant


@pytest.mark.parametrize("operator", sorted(OPERATORS))
def test_positions_touched_are_bounded(document, operator, monkeypatch):
    doc, a, d = document
    touched, sizes = [0], []

    def counted_view(doc, elements):
        view, element_of = streams.document_view(doc, elements)
        for name in ("pairs", "_start_keys", "_end_keys"):
            setattr(view, name, CountingArray(getattr(view, name), touched))
        sizes.append(len(view))
        return view, element_of

    for module in (containment, twig):
        monkeypatch.setattr(module, "document_view", counted_view)
    result = OPERATORS[operator](doc, a, d)
    (n,) = sizes
    inputs = len(doc.root.find_all(a)) + len(doc.root.find_all(d))
    bound = inputs * math.ceil(math.log2(n)) + len(result)
    assert result
    assert touched[0] <= bound, f"{operator} touched {touched[0]} positions (n={n})"
