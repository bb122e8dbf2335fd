"""LabeledDocument: the XML <-> scheme binding, editing operations, and
label-based queries, across every scheme."""

import pytest

from repro import LabeledDocument
from repro.errors import LabelingError
from repro.xml.generator import random_document, two_level_document
from repro.xml.model import Element, document_tags

from .conftest import SCHEME_FACTORIES, verify_document


@pytest.fixture(params=sorted(SCHEME_FACTORIES))
def doc(request):
    return LabeledDocument(
        SCHEME_FACTORIES[request.param](), two_level_document(20)
    )


class TestLoading:
    def test_every_element_gets_lids(self, doc):
        assert len(doc) == 21
        for element in doc.elements():
            assert doc.start_lid(element) != doc.end_lid(element)

    def test_labels_match_document_order(self, doc):
        verify_document(doc)

    def test_double_load_rejected(self, doc):
        with pytest.raises(LabelingError):
            doc.load(Element("again"))

    def test_root_interval_spans_children(self, doc):
        root_start, root_end = doc.labels(doc.root)
        for child in doc.root.children:
            child_start, child_end = doc.labels(child)
            assert root_start < child_start < child_end < root_end


class TestElementEditing:
    def test_insert_before_updates_tree_and_labels(self, doc):
        reference = doc.root.children[5]
        new = doc.insert_before(Element("new"), reference)
        assert doc.root.children[5] is new
        verify_document(doc)

    def test_append_child(self, doc):
        new = doc.append_child(Element("tail"), doc.root)
        assert doc.root.children[-1] is new
        verify_document(doc)

    def test_append_to_leaf_makes_it_internal(self, doc):
        leaf = doc.root.children[0]
        doc.append_child(Element("inner"), leaf)
        verify_document(doc)

    def test_sibling_of_root_rejected(self, doc):
        with pytest.raises(LabelingError):
            doc.insert_before(Element("x"), doc.root)

    def test_non_atomic_insert_rejected(self, doc):
        subtree = Element("s")
        subtree.make_child("t")
        with pytest.raises(LabelingError):
            doc.append_child(subtree, doc.root)

    def test_delete_promotes_children(self, doc):
        middle = doc.root.children[3]
        doc.append_child(Element("grand1"), middle)
        doc.append_child(Element("grand2"), middle)
        grandchildren = list(middle.children)
        doc.delete_element(middle)
        assert all(child.parent is doc.root for child in grandchildren)
        assert doc.root.children[3] is grandchildren[0]
        verify_document(doc)

    def test_delete_leaf(self, doc):
        victim = doc.root.children[7]
        doc.delete_element(victim)
        assert victim not in doc.root.children
        assert len(doc) == 20
        verify_document(doc)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda doc, b, c: doc.insert_before(b, c),
            lambda doc, b, c: doc.append_child(b, doc.root),
            lambda doc, b, c: doc.delete_element(Element("stranger")),
        ],
        ids=["insert_labeled", "append_labeled", "delete_unlabeled"],
    )
    def test_single_edit_makes_the_batched_checks(self, doc, edit):
        """A single-element edit is rejected exactly when the same edit in
        ``apply_edits`` is, and leaves labels and tree untouched."""
        b, c = doc.root.children[1], doc.root.children[2]
        before = doc.scheme.label_count()
        with pytest.raises(LabelingError):
            edit(doc, b, c)
        assert doc.scheme.label_count() == before
        verify_document(doc)


class TestSubtreeEditing:
    def test_insert_subtree_before(self, doc):
        subtree = random_document(15, seed=3)
        doc.insert_subtree_before(subtree, doc.root.children[10])
        assert doc.root.children[10] is subtree
        assert len(doc) == 36
        verify_document(doc)

    def test_append_subtree(self, doc):
        subtree = random_document(10, seed=4)
        doc.append_subtree(subtree, doc.root)
        assert doc.root.children[-1] is subtree
        verify_document(doc)

    def test_delete_subtree(self, doc):
        subtree = random_document(12, seed=5)
        doc.append_subtree(subtree, doc.root)
        doc.delete_subtree(subtree)
        assert len(doc) == 21
        assert subtree not in doc.root.children
        verify_document(doc)

    def test_delete_single_element_subtree(self, doc):
        victim = doc.root.children[0]
        doc.delete_subtree(victim)
        assert len(doc) == 20
        verify_document(doc)


class TestQueries:
    def test_is_ancestor(self, doc):
        child = doc.root.children[4]
        grandchild = doc.append_child(Element("g"), child)
        assert doc.is_ancestor(doc.root, child)
        assert doc.is_ancestor(doc.root, grandchild)
        assert doc.is_ancestor(child, grandchild)
        assert not doc.is_ancestor(grandchild, child)
        assert not doc.is_ancestor(child, doc.root.children[5])
        assert not doc.is_ancestor(child, child)

    def test_ordinals_when_supported(self, doc):
        if not doc.scheme.supports_ordinal:
            pytest.skip("scheme lacks ordinal support")
        tags = list(document_tags(doc.root))
        start, end = doc.ordinals(doc.root)
        assert start == 0 and end == len(tags) - 1

    def test_last_child_by_ordinal(self, doc):
        if not doc.scheme.supports_ordinal:
            pytest.skip("scheme lacks ordinal support")
        assert doc.is_last_child_by_ordinal(doc.root.children[-1], doc.root)
        assert not doc.is_last_child_by_ordinal(doc.root.children[0], doc.root)


class TestPairing:
    def test_tag_pairing_round_trip(self):
        from repro.core.document import tag_pairing

        root = random_document(25, seed=6)
        tags = list(document_tags(root))
        pairing = tag_pairing(tags)
        for index, partner in enumerate(pairing):
            assert pairing[partner] == index
            assert tags[index].element is tags[partner].element

    def test_unbalanced_stream_rejected(self):
        from repro.core.document import tag_pairing
        from repro.xml.model import Tag, TagKind

        with pytest.raises(LabelingError):
            tag_pairing([Tag(Element("a"), TagKind.START)])
