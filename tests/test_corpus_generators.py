"""DBLP-shaped and Treebank-shaped corpus generators."""

import pytest

from repro import LabeledDocument, TINY_CONFIG, WBoxO
from repro.xml.model import document_tags, element_count, tree_depth, validate_tag_order
from benchmarks.corpora import dblp_document, treebank_document


class TestDblp:
    def test_shallow_regardless_of_size(self):
        for size in (10, 200):
            assert tree_depth(dblp_document(size, seed=1)) == 3

    def test_publication_count(self):
        root = dblp_document(50, seed=2)
        assert len(root.children) == 50

    def test_every_publication_has_title_and_year(self):
        root = dblp_document(30, seed=3)
        for publication in root.children:
            assert publication.find("title") is not None
            assert publication.find("year") is not None
            assert publication.attributes["key"].startswith("pub/")

    def test_deterministic(self):
        a = dblp_document(40, seed=7)
        b = dblp_document(40, seed=7)
        assert [e.name for e in a.iter()] == [e.name for e in b.iter()]

    def test_well_nested(self):
        root = dblp_document(25, seed=4)
        assert validate_tag_order(list(document_tags(root)))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            dblp_document(0)


class TestTreebank:
    def test_deep_recursion(self):
        root = treebank_document(20, seed=1)
        assert tree_depth(root) > 10

    def test_max_depth_respected(self):
        root = treebank_document(20, seed=1, max_depth=8)
        assert tree_depth(root) <= 8 + 2  # word leaf below the cap

    def test_sentence_count(self):
        root = treebank_document(15, seed=5)
        assert len(root.children) == 15
        assert all(child.name == "S" for child in root.children)

    def test_deterministic(self):
        a = treebank_document(10, seed=9)
        b = treebank_document(10, seed=9)
        assert element_count(a) == element_count(b)
        assert [e.name for e in a.iter()] == [e.name for e in b.iter()]

    def test_well_nested(self):
        root = treebank_document(8, seed=2)
        assert validate_tag_order(list(document_tags(root)))

    def test_much_deeper_than_dblp(self):
        assert tree_depth(treebank_document(20, seed=1)) > 3 * tree_depth(
            dblp_document(20, seed=1)
        )

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            treebank_document(0)


class TestLabelingIntegration:
    @pytest.mark.parametrize("factory", [dblp_document, treebank_document])
    def test_wboxo_handles_both_shapes(self, factory):
        doc = LabeledDocument(WBoxO(TINY_CONFIG), factory(15, seed=6))
        doc.verify_order()
        doc.scheme.check_invariants()
