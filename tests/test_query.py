"""Query operators: axes, containment join, twig matching — verified
against brute-force tree walks, across schemes."""

import pytest

from repro import BBox, LabeledDocument, TINY_CONFIG, WBox
from repro.query import TwigNode, containment_join, containment_join_by_name, twig_match
from repro.query.axes import CachedIntervalFetcher, LabelInterval, label_interval
from repro.query.containment import brute_force_containment
from repro.query.twig import brute_force_twig
from repro.xml.generator import random_document
from repro.xml.model import Element
from repro.xml.xmark import xmark_document

from .conftest import SCHEME_FACTORIES


def binding_key(binding):
    return tuple(sorted((name, id(element)) for name, element in binding.items()))


def pair_key(pairs):
    return sorted((id(a), id(d)) for a, d in pairs)


@pytest.fixture(params=sorted(SCHEME_FACTORIES))
def xmark_doc(request):
    return LabeledDocument(SCHEME_FACTORIES[request.param](), xmark_document(6, seed=3))


class TestLabelInterval:
    def test_contains(self):
        outer, inner = LabelInterval(0, 10), LabelInterval(2, 5)
        assert outer.contains(inner)
        assert not inner.contains(outer)
        assert not outer.contains(outer)

    def test_precedes(self):
        first, second = LabelInterval(0, 3), LabelInterval(4, 8)
        assert first.precedes(second)
        assert not second.precedes(first)

    def test_tuple_labels(self):
        outer = LabelInterval((0,), (5,))
        inner = LabelInterval((1,), (2,))
        assert outer.contains(inner)

    def test_label_interval_fetch(self, xmark_doc):
        interval = label_interval(xmark_doc, xmark_doc.root)
        assert interval.start < interval.end


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


class TestCachedFetcher:
    def test_repeated_queries_hit_cache(self):
        doc = LabeledDocument(WBox(TINY_CONFIG), xmark_document(4, seed=1))
        fetch = CachedIntervalFetcher(doc, log_capacity=16)
        containment_join_by_name(doc, "item", "mail", fetch)
        first_misses = fetch.counters.fallthrough_reads
        containment_join_by_name(doc, "item", "mail", fetch)
        assert fetch.counters.fallthrough_reads == first_misses  # all cached
        assert fetch.counters.fresh_hits > 0

    def test_cached_join_correct_after_updates(self):
        doc = LabeledDocument(WBox(TINY_CONFIG), xmark_document(4, seed=1))
        fetch = CachedIntervalFetcher(doc, log_capacity=64)
        containment_join_by_name(doc, "item", "mail", fetch)
        mailbox = doc.root.find("mailbox")
        doc.append_child(Element("mail"), mailbox)
        pairs = containment_join_by_name(doc, "item", "mail", fetch)
        slow = brute_force_containment(
            doc.root.find_all("item"), doc.root.find_all("mail")
        )
        assert pair_key(pairs) == pair_key(slow)

    def test_cached_join_saves_io(self):
        doc = LabeledDocument(BBox(TINY_CONFIG), xmark_document(5, seed=2))
        fetch = CachedIntervalFetcher(doc, log_capacity=16)
        containment_join_by_name(doc, "item", "mail", fetch)  # warm
        with doc.scheme.store.measured() as cached_op:
            containment_join_by_name(doc, "item", "mail", fetch)
        with doc.scheme.store.measured() as plain_op:
            containment_join_by_name(doc, "item", "mail")
        assert cached_op.total == 0
        assert plain_op.total > 0
        fetch.close()
