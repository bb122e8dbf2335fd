"""Document generators: shapes, determinism, and the XMark-like schema."""

import pytest

from repro.xml.generator import random_document, two_level_document
from repro.xml.model import document_tags, element_count, tree_depth, validate_tag_order
from repro.xml.xmark import (
    CLOSED_AUCTIONS_PER_ITEM,
    OPEN_AUCTIONS_PER_ITEM,
    PERSONS_PER_ITEM,
    xmark_document,
    xmark_items_for_elements,
)

from benchmarks.corpora import path_document, wide_document


class TestTwoLevel:
    def test_element_count(self):
        root = two_level_document(10)
        assert element_count(root) == 11
        assert len(root.children) == 10

    def test_all_children_are_leaves(self):
        root = two_level_document(5)
        assert all(not child.children for child in root.children)

    def test_zero_children(self):
        assert element_count(two_level_document(0)) == 1

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            two_level_document(-1)


class TestRandomDocument:
    def test_exact_element_count(self):
        assert element_count(random_document(137, seed=1)) == 137

    def test_deterministic_for_seed(self):
        a = random_document(50, seed=9)
        b = random_document(50, seed=9)
        assert [e.name for e in a.iter()] == [e.name for e in b.iter()]

    def test_different_seeds_differ(self):
        a = random_document(80, seed=1)
        b = random_document(80, seed=2)
        assert [e.name for e in a.iter()] != [e.name for e in b.iter()]

    def test_depth_bias_controls_shape(self):
        deep = random_document(60, seed=3, depth_bias=0.95, max_children=3)
        flat = random_document(60, seed=3, depth_bias=0.05, max_children=60)
        assert tree_depth(deep) > tree_depth(flat)

    def test_well_nested(self):
        root = random_document(100, seed=4)
        assert validate_tag_order(list(document_tags(root)))

    def test_at_least_root(self):
        with pytest.raises(ValueError):
            random_document(0)


class TestShapes:
    def test_path_document(self):
        root = path_document(6)
        assert tree_depth(root) == 6
        assert element_count(root) == 6

    def test_wide_document(self):
        root = wide_document([3, 2])
        assert element_count(root) == 1 + 3 + 6
        assert len(root.children) == 3
        assert all(len(child.children) == 2 for child in root.children)


class TestXMark:
    def test_top_level_sections(self):
        site = xmark_document(20, seed=1)
        assert site.name == "site"
        assert [child.name for child in site.children] == [
            "regions",
            "categories",
            "catgraph",
            "people",
            "open_auctions",
            "closed_auctions",
        ]

    def test_entity_ratios(self):
        n_items = 200
        site = xmark_document(n_items, seed=1)
        assert len(site.find_all("item")) == n_items
        assert len(site.find_all("person")) == round(n_items * PERSONS_PER_ITEM)
        assert len(site.find_all("open_auction")) == round(n_items * OPEN_AUCTIONS_PER_ITEM)
        assert len(site.find_all("closed_auction")) == round(n_items * CLOSED_AUCTIONS_PER_ITEM)

    def test_items_live_under_regions(self):
        site = xmark_document(30, seed=2)
        regions = site.children[0]
        for item in site.find_all("item"):
            assert item.parent.parent is regions

    def test_items_have_mailboxes(self):
        site = xmark_document(15, seed=3)
        for item in site.find_all("item"):
            assert item.find("mailbox") is not None
            assert item.find("description") is not None

    def test_deterministic(self):
        a = xmark_document(25, seed=7)
        b = xmark_document(25, seed=7)
        assert element_count(a) == element_count(b)
        assert [e.name for e in a.iter()] == [e.name for e in b.iter()]

    def test_well_nested(self):
        site = xmark_document(10, seed=5)
        assert validate_tag_order(list(document_tags(site)))

    def test_size_estimator_is_close(self):
        target = 8000
        n_items = xmark_items_for_elements(target)
        actual = element_count(xmark_document(n_items, seed=1))
        assert 0.5 * target < actual < 2.0 * target

    def test_rejects_zero_items(self):
        with pytest.raises(ValueError):
            xmark_document(0)
