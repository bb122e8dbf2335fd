"""Each library query operator reads its labels once.

A containment join, semijoin, count, twig match and XPath evaluation each
read every label they need in one ``scheme.lookup_many`` into an
:class:`~repro.query.streams.EpochView`, so a call costs the blocks those
labels share, counted once — not one operation scope per element.

The document is a fixed-seed XMark site (400 items, seed 11: 18,010
elements) on 1 KB blocks.  Per-element fetching cost 3,180 counted reads
for the W-BOX ``item//mail`` join (6,360 on B-BOX), 4,780 for the
``item/mailbox/mail`` twig and 1,072 for ``//item[mailbox/mail]/name``;
one read costs 165–167 on both.  Counted I/O is host-independent, so this
runs in CI's bench-smoke job beside ``test_insert_call_counts.py``.
"""

from __future__ import annotations

import pytest

from repro import BBox, BoxConfig, LabeledDocument, WBox
from repro.query import (
    TwigNode,
    containment_count,
    containment_join,
    containment_join_by_name,
    containment_semijoin,
    twig_match,
    xpath,
)
from repro.xml.xmark import xmark_document

from .query_reference import brute_force_containment

CONFIG = BoxConfig(block_bytes=1024)
#: Counted block reads one operator call may cost (one read costs 165–167).
READ_BOUND = 200

OPERATORS = {
    "join": lambda doc: containment_join_by_name(doc, "item", "mail"),
    "semijoin": lambda doc: containment_semijoin(
        doc, doc.root.find_all("item"), doc.root.find_all("mail")
    ),
    "count": lambda doc: containment_count(
        doc, doc.root.find_all("item"), doc.root.find_all("mail")
    ),
    "twig": lambda doc: twig_match(
        doc, TwigNode("item", [TwigNode("mailbox", [TwigNode("mail")])])
    ),
    "xpath": lambda doc: xpath(doc, "//item[mailbox/mail]/name"),
}


@pytest.fixture(scope="module")
def site():
    return xmark_document(400, seed=11)


@pytest.fixture(scope="module", params=["wbox", "bbox"])
def doc(request, site):
    scheme = {"wbox": WBox, "bbox": BBox}[request.param](CONFIG)
    return LabeledDocument(scheme, site)


@pytest.mark.parametrize("operator", sorted(OPERATORS))
def test_one_lookup_many_per_call(doc, operator, monkeypatch):
    calls = []
    read = doc.scheme.lookup_many

    def spy(lids, *args, **kwargs):
        calls.append(len(lids))
        return read(lids, *args, **kwargs)

    monkeypatch.setattr(doc.scheme, "lookup_many", spy)
    before = doc.scheme.stats.snapshot()
    result = OPERATORS[operator](doc)
    cost = doc.scheme.stats.snapshot() - before
    assert len(calls) == 1, f"{operator} made {len(calls)} lookup_many calls"
    assert result
    assert cost.writes == 0
    assert cost.reads <= READ_BOUND, f"{operator} read {cost.reads} blocks"


def test_join_is_grouped_by_ancestor_in_document_order(doc):
    items, mails = doc.root.find_all("item"), doc.root.find_all("mail")
    # find_all walks in document order, so the brute-force pairs are
    # grouped the same way: ancestors in document order, each run in order.
    assert containment_join(doc, items, mails) == brute_force_containment(items, mails)
