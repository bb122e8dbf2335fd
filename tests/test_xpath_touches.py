"""XPath steps are node-sets: no element is walked twice by one step.

A step's output holds each element once, a descendant step walks only
the outermost context elements, and a predicate's relative path stops at
its first match, remembering which elements have a match below them.  So
an expression of ``s`` location steps (predicate steps included) reads at
most ``(s + 1) * n`` entries of the documents' child lists, ``n`` being
the element count.  The count is every entry read from any element's
``children``, so it is host-independent.

Two documents: a chain of 2,000 nested ``a`` over one ``d``, where
walking every context element's subtree reads ~2,000,000 entries per
step (and a context with duplicates grows the next step's work again),
and the fixed-seed XMark site of ``test_query_positions.py`` (400 items,
seed 11: 18,010 elements), whose ``*`` steps self-nest at every level.
The budget is enforced while reading, so a quadratic walk fails fast.
"""

from __future__ import annotations

import pytest

from repro import BoxConfig, LabeledDocument, WBox
from repro.query.xpath import evaluate, parse_xpath
from repro.xml.model import Element, element_count
from repro.xml.xmark import xmark_document


class OverBudget(Exception):
    pass


class CountingChildren(list):
    """A child list that charges every entry read to a shared budget."""

    budget = [10**12]

    def _charge(self, count: int) -> None:
        CountingChildren.budget[0] -= count
        if CountingChildren.budget[0] < 0:
            raise OverBudget

    def __iter__(self):
        for item in super().__iter__():
            self._charge(1)
            yield item

    def __reversed__(self):
        for item in super().__reversed__():
            self._charge(1)
            yield item

    def __getitem__(self, index):
        item = super().__getitem__(index)
        self._charge(len(item) if isinstance(index, slice) else 1)
        return item


def chain() -> Element:
    root = node = Element("a")
    for _ in range(1999):
        node = node.make_child("a")
    node.make_child("d")
    return root


def _steps(steps) -> int:
    return sum(
        1 + sum(_steps(p.path) for p in step.predicates if p.kind == "path")
        for step in steps
    )


@pytest.fixture(scope="module", params=["chain", "xmark"])
def document(request):
    root = chain() if request.param == "chain" else xmark_document(400, seed=11)
    doc = LabeledDocument(WBox(BoxConfig(block_bytes=1024)), root)
    for element in root.iter():
        element.children = CountingChildren(element.children)
    return request.param, doc


CASES = {
    "chain": {"//a//d": 1, "//a//a//a": 1998, "//a[.//d]": 2000, "//a/a//d": 1},
    "xmark": {
        "//*//*": 18009,
        "//*[.//keyword]": None,
        "//*[*]//*[*]": None,
        "//item[mailbox/mail]/name": None,
        "//parlist//listitem": None,
    },
}


def test_each_step_walks_each_element_once(document):
    name, doc = document
    n = element_count(doc.root)
    for expression, expected in CASES[name].items():
        bound = (_steps(parse_xpath(expression)) + 1) * n
        CountingChildren.budget[0] = bound
        try:
            matches = evaluate(doc, expression)
        except OverBudget:
            pytest.fail(f"{expression} on {name} read more than {bound} child entries")
        finally:
            CountingChildren.budget[0] = 10**12
        if expected is not None:
            assert len(matches) == expected, expression
