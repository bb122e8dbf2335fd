"""Query operators: label intervals in the view, containment join, twig
matching — verified against brute-force tree walks, across schemes."""

import pytest

from repro import BBox, LabeledDocument, TINY_CONFIG, WBox
from repro.query import (
    EpochView,
    TwigNode,
    containment_join,
    containment_join_by_name,
    document_view,
    twig_match,
)
from repro.xml.generator import random_document
from repro.xml.model import Element
from repro.xml.xmark import xmark_document

from .conftest import SCHEME_FACTORIES
from .query_reference import brute_force_containment, brute_force_twig


def binding_key(binding):
    return tuple(sorted((name, id(element)) for name, element in binding.items()))


def pair_key(pairs):
    return sorted((id(a), id(d)) for a, d in pairs)


@pytest.fixture(params=sorted(SCHEME_FACTORIES))
def xmark_doc(request):
    return LabeledDocument(SCHEME_FACTORIES[request.param](), xmark_document(6, seed=3))


class TestLabelInterval:
    """An element is its (start, end) label interval in the view, and
    containment and precedence are decided on those values alone."""

    def test_contains(self):
        view = EpochView.build([(1, 2), (3, 4)], [0, 10, 2, 5])
        assert list(view.descendants((1, 2))) == [(3, 4)]
        assert list(view.descendants((3, 4))) == []  # never its own

    def test_precedes(self):
        view = EpochView.build([(3, 4), (1, 2)], [4, 8, 0, 3])
        assert view.pairs == [(1, 2), (3, 4)]
        assert list(view.following((1, 2))) == [(3, 4)]
        assert list(view.following((3, 4))) == []

    def test_tuple_labels(self):
        view = EpochView.build([(1, 2), (3, 4)], [(0,), (5,), (1,), (2,)])
        assert list(view.descendants((1, 2))) == [(3, 4)]

    def test_label_interval_fetch(self, xmark_doc):
        root = xmark_doc.root
        view, element_of = document_view(xmark_doc, root.iter())
        assert [element_of[pair] for pair in view.pairs] == list(root.iter())
        root_pair = (xmark_doc.start_lid(root), xmark_doc.end_lid(root))
        assert len(list(view.descendants(root_pair))) == len(view) - 1


class TestContainmentJoin:
    def test_matches_brute_force_on_xmark(self, xmark_doc):
        ancestors = xmark_doc.root.find_all("item")
        descendants = xmark_doc.root.find_all("text")
        fast = containment_join(xmark_doc, ancestors, descendants)
        slow = brute_force_containment(ancestors, descendants)
        assert pair_key(fast) == pair_key(slow)

    def test_by_name(self, xmark_doc):
        pairs = containment_join_by_name(xmark_doc, "person", "emailaddress")
        slow = brute_force_containment(
            xmark_doc.root.find_all("person"), xmark_doc.root.find_all("emailaddress")
        )
        assert pair_key(pairs) == pair_key(slow)

    def test_nested_same_name_ancestors(self):
        # a inside a inside a: the stack must report all containing pairs.
        root = Element("a")
        middle = root.make_child("a")
        inner = middle.make_child("a")
        target = inner.make_child("d")
        doc = LabeledDocument(WBox(TINY_CONFIG), root)
        pairs = containment_join(doc, [root, middle, inner], [target])
        assert len(pairs) == 3

    def test_empty_inputs(self, xmark_doc):
        assert containment_join(xmark_doc, [], []) == []
        assert containment_join_by_name(xmark_doc, "missing", "also_missing") == []

    def test_random_documents_match_brute_force(self):
        for seed in range(5):
            root = random_document(60, seed=seed)
            doc = LabeledDocument(BBox(TINY_CONFIG), root)
            ancestors = root.find_all("a")
            descendants = root.find_all("b")
            fast = containment_join(doc, ancestors, descendants)
            slow = brute_force_containment(ancestors, descendants)
            assert pair_key(fast) == pair_key(slow)

    def test_join_after_updates(self, xmark_doc):
        # Labels keep answering correctly after editing the document.
        people = xmark_doc.root.find("people")
        for _ in range(10):
            person = Element("person")
            xmark_doc.append_child(person, people)
            xmark_doc.append_child(Element("emailaddress"), person)
        pairs = containment_join_by_name(xmark_doc, "person", "emailaddress")
        slow = brute_force_containment(
            xmark_doc.root.find_all("person"), xmark_doc.root.find_all("emailaddress")
        )
        assert pair_key(pairs) == pair_key(slow)


class TestTwigMatch:
    def test_path_pattern(self, xmark_doc):
        pattern = TwigNode("item", [TwigNode("mailbox", [TwigNode("mail")])])
        fast = twig_match(xmark_doc, pattern)
        slow = brute_force_twig(xmark_doc.root, pattern)
        assert sorted(map(binding_key, fast)) == sorted(map(binding_key, slow))

    def test_branching_pattern(self, xmark_doc):
        pattern = TwigNode(
            "open_auction", [TwigNode("bidder", [TwigNode("increase")]), TwigNode("seller")]
        )
        fast = twig_match(xmark_doc, pattern)
        slow = brute_force_twig(xmark_doc.root, pattern)
        assert sorted(map(binding_key, fast)) == sorted(map(binding_key, slow))

    def test_duplicate_names_need_suffixes(self, xmark_doc):
        with pytest.raises(ValueError):
            twig_match(xmark_doc, TwigNode("a", [TwigNode("a")]))

    def test_suffixed_pattern(self):
        root = Element("a")
        root.make_child("a").make_child("b")
        doc = LabeledDocument(WBox(TINY_CONFIG), root)
        pattern = TwigNode("a", [TwigNode("a#inner", [TwigNode("b")])])
        matches = twig_match(doc, pattern)
        assert len(matches) == 1
        assert matches[0]["a"] is root

    def test_no_matches(self, xmark_doc):
        assert twig_match(xmark_doc, TwigNode("nonexistent")) == []

    def test_leaf_only_pattern(self, xmark_doc):
        matches = twig_match(xmark_doc, TwigNode("regions"))
        assert len(matches) == 1

    @pytest.mark.parametrize("name", sorted(SCHEME_FACTORIES))
    def test_self_nesting_documents_match_brute_force(self, name):
        # XMark never nests a tag in itself; these documents do at every
        # level, so each step's candidates include inner bound elements.
        chain = node = Element("a")
        for depth in range(40):
            node = node.make_child("a" if depth % 5 else "b")
            node.make_child("c")
        documents = [
            random_document(90, seed=7, tag_pool=("a", "b"), depth_bias=0.7),
            random_document(90, seed=8, tag_pool=("a", "b", "c"), depth_bias=0.7),
            chain,
        ]
        patterns = [
            TwigNode("a", [TwigNode("b")]),
            TwigNode("a", [TwigNode("a#inner", [TwigNode("b")])]),
            TwigNode("b", [TwigNode("a", [TwigNode("c")]), TwigNode("b#inner")]),
        ]
        for root in documents:
            doc = LabeledDocument(SCHEME_FACTORIES[name](), root)
            for pattern in patterns:
                fast = twig_match(doc, pattern)
                # Same bindings in the same order: roots in document order,
                # each step's candidates in document order.
                assert list(map(binding_key, fast)) == list(
                    map(binding_key, brute_force_twig(root, pattern))
                )
