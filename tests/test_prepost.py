"""Pre/post-order labeling adapter (Section 3's 'other orders' remark),
which lives beside its demo in ``examples/prepost_plane.py``."""

import random

import pytest

from examples.prepost_plane import PrePostDocument, leftmost_leaf, postorder, preorder
from repro import BBox, NaiveScheme, TINY_CONFIG, WBox
from repro.errors import LabelingError
from repro.xml.generator import random_document, two_level_document
from repro.xml.model import Element
from repro.xml.xmark import xmark_document


def fresh(factory, root):
    return PrePostDocument(factory, root)


from repro import WBoxO

FACTORIES = {
    "wbox-ordinal": lambda: WBox(TINY_CONFIG, ordinal=True),
    "bbox-ordinal": lambda: BBox(TINY_CONFIG, ordinal=True),
    "naive-4": lambda: NaiveScheme(4, TINY_CONFIG),
    "wboxo-ordinal": lambda: WBoxO(TINY_CONFIG, ordinal=True),
}


class TestTraversals:
    def test_postorder_visits_children_first(self):
        root = random_document(30, seed=1)
        seen = set()
        for element in postorder(root):
            assert all(child in seen for child in element.children)
            seen.add(element)

    def test_preorder_matches_iter(self):
        root = random_document(25, seed=2)
        assert list(preorder(root)) == list(root.iter())

    def test_leftmost_leaf(self):
        root = two_level_document(3)
        assert leftmost_leaf(root) is root.children[0]
        assert leftmost_leaf(root.children[1]) is root.children[1]


@pytest.mark.parametrize("name", sorted(FACTORIES))
class TestPlane:
    def test_ranks_match_traversals(self, name):
        if "ordinal" not in name:
            pytest.skip("exact ranks need ordinal schemes")
        root = random_document(40, seed=3)
        doc = fresh(FACTORIES[name], root)
        for rank, element in enumerate(preorder(root)):
            pre, _ = doc.pre_post(element)
            assert pre == rank
        for rank, element in enumerate(postorder(root)):
            _, post = doc.pre_post(element)
            assert post == rank

    def test_ancestor_test_matches_structure(self, name):
        root = random_document(50, seed=4)
        doc = fresh(FACTORIES[name], root)
        elements = list(root.iter())
        rng = random.Random(7)
        for _ in range(200):
            a, d = rng.choice(elements), rng.choice(elements)
            assert doc.is_ancestor(a, d) == a.is_ancestor_of(d)

    def test_precedes_matches_document_order(self, name):
        root = random_document(40, seed=5)
        doc = fresh(FACTORIES[name], root)
        elements = list(root.iter())
        rng = random.Random(8)
        for _ in range(150):
            x, y = rng.choice(elements), rng.choice(elements)
            expected = (
                x is not y
                and not x.is_ancestor_of(y)
                and not y.is_ancestor_of(x)
                and elements.index(x) < elements.index(y)
            )
            assert doc.precedes(x, y) == expected


class TestEditing:
    @pytest.fixture
    def doc(self):
        return fresh(FACTORIES["wbox-ordinal"], two_level_document(12))

    def test_insert_before_sibling(self, doc):
        sibling = doc.root.children[5]
        new = doc.insert_before(Element("n"), sibling)
        doc.verify()
        pre_new, post_new = doc.pre_post(new)
        pre_sib, post_sib = doc.pre_post(sibling)
        assert pre_new == pre_sib - 1
        assert post_new < post_sib

    def test_append_child_to_leaf(self, doc):
        parent = doc.root.children[3]
        new = doc.append_child(Element("deep"), parent)
        doc.verify()
        assert doc.is_ancestor(parent, new)
        assert doc.is_ancestor(doc.root, new)

    def test_append_child_to_root(self, doc):
        new = doc.append_child(Element("tail"), doc.root)
        doc.verify()
        pre, post = doc.pre_post(new)
        assert pre == len(doc) - 1  # last in pre-order
        root_pre, root_post = doc.pre_post(doc.root)
        assert post == root_post - 1  # just before the root in post-order

    def test_delete_promotes_children(self, doc):
        parent = doc.root.children[4]
        a = doc.append_child(Element("a"), parent)
        b = doc.append_child(Element("b"), parent)
        doc.delete(parent)
        doc.verify()
        assert a.parent is doc.root and b.parent is doc.root
        assert not doc.is_ancestor(doc.root.children[3], a)
        assert doc.is_ancestor(doc.root, a)

    def test_root_delete_rejected(self, doc):
        with pytest.raises(LabelingError):
            doc.delete(doc.root)

    def test_sibling_of_root_rejected(self, doc):
        with pytest.raises(LabelingError):
            doc.insert_before(Element("x"), doc.root)

    def test_editing_session(self, doc):
        rng = random.Random(11)
        elements = [e for e in doc.root.iter() if e is not doc.root]
        for step in range(150):
            roll = rng.random()
            if roll < 0.4:
                new = doc.insert_before(Element(f"s{step}"), rng.choice(elements))
                elements.append(new)
            elif roll < 0.8:
                target = rng.choice(elements + [doc.root])
                new = doc.append_child(Element(f"c{step}"), target)
                elements.append(new)
            elif len(elements) > 5:
                victim = elements.pop(rng.randrange(len(elements)))
                doc.delete(victim)
        doc.verify()
        # Full cross-check of the plane against the structure.
        sample = rng.sample(list(doc.root.iter()), 20)
        for a in sample:
            for d in sample:
                assert doc.is_ancestor(a, d) == a.is_ancestor_of(d)


class TestOnXMark:
    def test_xmark_plane(self):
        root = xmark_document(4, seed=6)
        doc = fresh(FACTORIES["bbox-ordinal"], root)
        items = root.find_all("item")
        mails = root.find_all("mail")
        expected = sum(
            1 for item in items for mail in mails if item.is_ancestor_of(mail)
        )
        measured = sum(
            1 for item in items for mail in mails if doc.is_ancestor(item, mail)
        )
        assert measured == expected
