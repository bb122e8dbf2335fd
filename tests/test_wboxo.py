"""W-BOX-O: start/end pair records, partner pointers, cached end values."""

import random

import pytest

from repro import TINY_CONFIG, BatchOp, WBoxO
from repro.core.document import LabeledDocument
from repro.errors import LabelingError
from repro.xml.generator import path_document, two_level_document
from repro.xml.model import Element


@pytest.fixture
def doc():
    return LabeledDocument(WBoxO(TINY_CONFIG), two_level_document(30))


def assert_pairs_consistent(doc):
    """Every element's lookup_pair must agree with two plain lookups."""
    scheme = doc.scheme
    for element in doc.elements():
        start_lid, end_lid = doc.start_lid(element), doc.end_lid(element)
        pair = scheme.lookup_pair(start_lid, end_lid)
        assert pair == (scheme.lookup(start_lid), scheme.lookup(end_lid))


class TestPairLookup:
    def test_pair_from_one_record(self, doc):
        assert_pairs_consistent(doc)

    def test_pair_lookup_costs_two_ios(self, doc):
        element = doc.root.children[10]
        with doc.scheme.store.measured() as op:
            doc.labels(element)
        assert op.reads == 2  # LIDF + the start record's leaf
        assert op.writes == 0

    def test_plain_pair_costs_more(self):
        # The unoptimized W-BOX needs up to 4 reads for a pair whose labels
        # live on different leaves.
        from repro import WBox

        doc = LabeledDocument(WBox(TINY_CONFIG), two_level_document(30))
        # The root's start and end records live on distant leaves.
        with doc.scheme.store.measured() as op:
            doc.labels(doc.root)
        assert op.reads >= 3

    def test_bulk_load_requires_pairing(self):
        scheme = WBoxO(TINY_CONFIG)
        with pytest.raises(LabelingError):
            scheme.bulk_load(10)

    def test_pairing_length_must_match(self):
        scheme = WBoxO(TINY_CONFIG)
        with pytest.raises(LabelingError):
            scheme.bulk_load(4, [1, 0])


class TestMaintenanceUnderInserts:
    def test_pairs_survive_leaf_splits(self, doc):
        anchor = doc.root.children[15]
        for _ in range(60):
            anchor = doc.insert_before(Element("x"), anchor)
        assert_pairs_consistent(doc)
        doc.scheme.check_invariants()

    def test_pairs_survive_adversarial_squeeze(self, doc):
        anchor = doc.root.children[15]
        for index in range(200):
            new = doc.insert_before(Element("x"), anchor)
            if index % 2 == 0:
                anchor = new
        assert_pairs_consistent(doc)
        doc.verify_order()

    def test_pairs_survive_deep_nesting(self):
        # A deep path stresses the D-bounded cached-end updates: the open
        # ancestors' end labels shift on every insert below them.
        doc = LabeledDocument(WBoxO(TINY_CONFIG), path_document(12))
        deepest = doc.root
        while deepest.children:
            deepest = deepest.children[0]
        for _ in range(80):
            doc.append_child(Element("leafy"), deepest)
        assert_pairs_consistent(doc)
        doc.verify_order()
        doc.scheme.check_invariants()

    def test_pairs_survive_deletes(self, doc):
        rng = random.Random(4)
        children = list(doc.root.children)
        for victim in rng.sample(children, 20):
            doc.delete_element(victim)
        assert_pairs_consistent(doc)
        doc.verify_order()

    def test_pairs_survive_rebuild(self):
        doc = LabeledDocument(WBoxO(TINY_CONFIG), two_level_document(40))
        children = list(doc.root.children)
        for victim in children[:30]:  # triggers global rebuilding
            doc.delete_element(victim)
        assert_pairs_consistent(doc)
        doc.scheme.check_invariants()


class TestSubtreeOps:
    def test_subtree_insert_wires_pairs(self, doc):
        from repro.xml.generator import random_document

        subtree = random_document(40, seed=6)
        doc.insert_subtree_before(subtree, doc.root.children[5])
        assert_pairs_consistent(doc)
        doc.verify_order()
        doc.scheme.check_invariants()

    def test_subtree_insert_requires_pairing(self, doc):
        with pytest.raises(LabelingError):
            doc.scheme.insert_subtree_before(doc.start_lid(doc.root.children[0]), 4)

    @pytest.mark.parametrize(
        "pairing",
        [(1, 2, 0), (1, 0, 5), (0, 1, -1), (1, 0)],
        ids=["not-an-involution", "out-of-range", "negative", "short"],
    )
    def test_bad_pairing_in_a_batch_is_refused_before_any_insert(self, pairing):
        """A Submit frame can carry any int tuple: a pairing that does not
        pair every position back is a typed error, and the tree is as it was."""
        scheme = WBoxO(TINY_CONFIG)
        lids = scheme.bulk_load(8, [i ^ 1 for i in range(8)])
        before = [scheme.lookup(lid) for lid in lids]
        with pytest.raises(LabelingError, match="pairing"):
            scheme.execute_batch([BatchOp("insert_subtree_before", (lids[3], 3, pairing))])
        assert scheme.label_count() == 8
        assert [scheme.lookup(lid) for lid in lids] == before
        scheme.check_invariants()
        (new,) = scheme.execute_batch(
            [BatchOp("insert_subtree_before", (lids[3], 3, (2, 1, 0)))]
        ).results
        assert scheme.lookup_pair(new[0], new[2]) == (scheme.lookup(new[0]), scheme.lookup(new[2]))

    def test_subtree_delete_keeps_outside_pairs(self, doc):
        from repro.xml.generator import random_document

        subtree = random_document(30, seed=8)
        doc.insert_subtree_before(subtree, doc.root.children[5])
        doc.delete_subtree(subtree)
        assert_pairs_consistent(doc)
        doc.verify_order()
        doc.scheme.check_invariants()


class TestInsertCost:
    def test_insert_cost_grows_with_document_depth(self):
        # Theorem 4.7: O(D + log_B N) — the depth term comes from cached
        # end-label maintenance along the open-ancestor path.
        shallow = LabeledDocument(WBoxO(TINY_CONFIG), two_level_document(64))
        deep = LabeledDocument(WBoxO(TINY_CONFIG), path_document(40))

        target_shallow = shallow.root.children[32]
        deepest = deep.root
        while deepest.children:
            deepest = deepest.children[0]

        def average_cost(doc, act, repeats=60):
            before = doc.scheme.stats.snapshot()
            for _ in range(repeats):
                act()
            return (doc.scheme.stats.snapshot() - before).total / repeats

        shallow_cost = average_cost(
            shallow, lambda: shallow.insert_before(Element("x"), target_shallow)
        )
        deep_cost = average_cost(
            deep, lambda: deep.append_child(Element("x"), deepest)
        )
        assert deep_cost > shallow_cost
