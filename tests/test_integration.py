"""End-to-end integration: full editing sessions over XMark-shaped data,
cross-scheme agreement, shared-store co-existence, and the LID immutability
contract."""

import random

import pytest

from repro import (
    BBox,
    BoxConfig,
    CachedLabelStore,
    LabeledDocument,
    NaiveScheme,
    TINY_CONFIG,
    WBox,
    WBoxO,
)
from repro.query import TwigNode, containment_join_by_name, twig_match
from repro.storage import BlockStore
from repro.xml import parse, serialize, xmark_document
from repro.xml.generator import random_document
from repro.xml.model import Element

from .conftest import SCHEME_FACTORIES, random_edit_session, verify_document
from .query_reference import brute_force_containment


class TestFullSessions:
    @pytest.mark.parametrize("name", sorted(SCHEME_FACTORIES))
    def test_long_mixed_session(self, name):
        doc = LabeledDocument(SCHEME_FACTORIES[name](), xmark_document(3, seed=4))
        random_edit_session(doc, operations=120, seed=17)
        verify_document(doc)

    def test_parse_label_edit_serialize(self):
        text = "<library><shelf><book id=\"1\"/><book id=\"2\"/></shelf></library>"
        doc = LabeledDocument(WBox(TINY_CONFIG), parse(text))
        shelf = doc.root.find("shelf")
        doc.append_child(Element("book", {"id": "3"}), shelf)
        verify_document(doc)
        output = serialize(doc.root)
        assert output.count("<book") == 3

    def test_schemes_agree_on_ancestor_relation(self):
        root = random_document(60, seed=30)
        docs = []
        for name in ("wbox", "bbox", "naive-4"):
            clone = parse(serialize(root))
            docs.append(LabeledDocument(SCHEME_FACTORIES[name](), clone))
        for doc in docs:
            elements = list(doc.root.iter())
            rng = random.Random(1)
            samples = [
                (rng.randrange(len(elements)), rng.randrange(len(elements)))
                for _ in range(60)
            ]
            for i, j in samples:
                structural = elements[i].is_ancestor_of(elements[j])
                labeled = doc.is_ancestor(elements[i], elements[j])
                assert structural == labeled


class TestSharedInfrastructure:
    def test_two_schemes_share_store_and_stats(self):
        store = BlockStore(TINY_CONFIG)
        wbox = WBox(TINY_CONFIG, store=store)
        bbox = BBox(TINY_CONFIG, store=store)
        wbox.bulk_load(30)
        bbox.bulk_load(30)
        wbox.check_invariants()
        bbox.check_invariants()
        assert store.stats.total_io > 0

    def test_lids_are_immutable_across_relabels(self):
        # The core LIDF promise: a LID handed out once keeps identifying the
        # same tag through any amount of relabeling.
        scheme = WBox(TINY_CONFIG)
        lids = scheme.bulk_load(30)
        tracked = lids[12]
        left_neighbor = lids[11]
        right_neighbor = lids[13]
        anchor = tracked
        for _ in range(400):  # force many splits and relabels
            scheme.insert_before(anchor)
        assert scheme.lookup(left_neighbor) < scheme.lookup(tracked)
        assert scheme.lookup(tracked) < scheme.lookup(right_neighbor)

    def test_label_values_change_but_order_does_not(self):
        scheme = WBox(TINY_CONFIG)
        lids = scheme.bulk_load(30)
        before = [scheme.lookup(lid) for lid in lids]
        for _ in range(200):
            scheme.insert_before(lids[15])
        after = [scheme.lookup(lid) for lid in lids]
        assert after == sorted(after)
        assert before != after  # labels did move: dynamic, not immutable


class TestQueriesUnderChurn:
    def test_cached_twig_results_track_edits(self):
        doc = LabeledDocument(BBox(TINY_CONFIG), xmark_document(4, seed=5))
        pattern = TwigNode("person", [TwigNode("emailaddress")])
        baseline = len(twig_match(doc, pattern))
        people = doc.root.find("people")
        for index in range(5):
            person = Element("person", {"id": f"extra{index}"})
            doc.append_child(person, people)
            doc.append_child(Element("emailaddress"), person)
        assert len(twig_match(doc, pattern)) == baseline + 5

    def test_containment_correct_after_subtree_ops(self):
        doc = LabeledDocument(WBoxO(TINY_CONFIG), xmark_document(4, seed=6))
        region = doc.root.find("asia") or doc.root.find("regions").children[0]
        item = parse(
            '<item id="new"><name>lot</name><mailbox><mail/><mail/></mailbox></item>'
        )
        doc.append_subtree(item, region)
        pairs = containment_join_by_name(doc, "item", "mail")
        slow = brute_force_containment(
            doc.root.find_all("item"), doc.root.find_all("mail")
        )
        assert len(pairs) == len(slow)
        doc.delete_subtree(item)
        pairs_after = containment_join_by_name(doc, "item", "mail")
        slow_after = brute_force_containment(
            doc.root.find_all("item"), doc.root.find_all("mail")
        )
        assert len(pairs_after) == len(slow_after)

    def test_read_mostly_workload_with_cache(self):
        scheme = NaiveScheme(8, TINY_CONFIG)
        doc = LabeledDocument(scheme, xmark_document(3, seed=7))
        cache = CachedLabelStore(scheme, log_capacity=16)
        refs = [cache.reference(doc.start_lid(el)) for el in list(doc.elements())[:50]]
        mailbox = doc.root.find("mailbox")
        for round_number in range(20):
            if round_number % 10 == 0:
                doc.append_child(Element("mail"), mailbox)
            for ref in refs:
                assert cache.get(ref) == scheme.lookup(ref.lid)
        assert cache.counters.repair_hit_ratio > 0.8


class TestConfigurationSweep:
    @pytest.mark.parametrize("block_bytes", [1024, 4096, 8192])
    def test_realistic_block_sizes_work(self, block_bytes):
        config = BoxConfig(block_bytes=block_bytes)
        doc = LabeledDocument(WBox(config), random_document(120, seed=8))
        random_edit_session(doc, operations=40, seed=9)
        verify_document(doc)

    def test_taller_trees_with_tiny_nodes(self):
        scheme = BBox(TINY_CONFIG)
        scheme.bulk_load(1500)
        assert scheme.height >= 3
        scheme.check_invariants()
