#!/usr/bin/env python3
"""The pre/post plane on dynamic labels.

Section 3 of the paper notes its structures "also work for other
definitions of order (e.g., one based on pre-order and post-order
traversals)".  This example makes the claim concrete: ``PrePostDocument``
maintains TWO order structures over any labeling scheme — one over the
elements in pre-order, one in post-order — and exposes the classic
pre/post *plane* of Grust's XPath accelerator (which the paper cites among
the order-based schemes).  Every element is a point (pre, post); an
element's descendants occupy the lower-right quadrant anchored at it, its
ancestors the upper-left — so XPath axes become 2-D window queries:

* ``e1`` is an ancestor of ``e2``  ⇔  ``pre(e1) < pre(e2)`` and
  ``post(e2) < post(e1)``;
* with ordinal-capable schemes the exact (pre, post) integer ranks are
  available; with any scheme the plane is usable through comparisons.

Each XML element owns one label in each structure.  Editing operations map
tree positions to order anchors:

* *insert before a sibling s*: pre-anchor = ``s`` (pre-order visits the new
  element just before ``s``); post-anchor = the first element of ``s``'s
  subtree in post-order, i.e. ``s``'s leftmost-deepest descendant.
* *append as last child of p*: pre-anchor = the element following ``p``'s
  subtree in pre-order (a persistent sentinel covers "end of document");
  post-anchor = ``p`` itself (children precede their parent in post-order).
* *delete*: remove the element from both orders (children are promoted in
  the XML model; both traversal orders of the survivors are unchanged).

The demo below uses two B-BOX-O instances.  ``tests/test_prepost.py``
imports the adapter from here.

Run:  python examples/prepost_plane.py
"""

from __future__ import annotations

from typing import Callable, Iterator

from repro import BBox, BoxConfig, LabelingScheme
from repro.errors import LabelingError
from repro.xml.model import Element
from repro.xml.parser import parse

SchemeFactory = Callable[[], LabelingScheme]


def preorder(root: Element) -> Iterator[Element]:
    """Pre-order element traversal (document order of start tags)."""
    return root.iter()


def postorder(root: Element) -> Iterator[Element]:
    """Post-order element traversal (document order of end tags)."""
    stack: list[tuple[Element, bool]] = [(root, False)]
    while stack:
        element, expanded = stack.pop()
        if expanded:
            yield element
            continue
        stack.append((element, True))
        for child in reversed(element.children):
            stack.append((child, False))


def leftmost_leaf(element: Element) -> Element:
    """The first element of ``element``'s subtree in post-order."""
    while element.children:
        element = element.children[0]
    return element


class PrePostDocument:
    """An XML document labeled in the pre/post plane.

    Parameters
    ----------
    scheme_factory:
        Called twice to create the pre-order and post-order structures
        (e.g. ``lambda: WBox(config, ordinal=True)``).  Ordinal-capable
        schemes enable :meth:`pre_post` ranks; any scheme supports the
        comparison-based operations.
    root:
        The document to label.
    """

    def __init__(self, scheme_factory: SchemeFactory, root: Element) -> None:
        self.pre_scheme = scheme_factory()
        self.post_scheme = scheme_factory()
        self.root = root
        elements_pre = list(preorder(root))
        elements_post = list(postorder(root))
        # One label per element per order, plus a trailing sentinel that
        # keeps "insert at the very end" expressible as insert-before.
        pre_lids = self.pre_scheme.bulk_load(
            len(elements_pre) + 1, _self_pairing(len(elements_pre) + 1)
        )
        post_lids = self.post_scheme.bulk_load(
            len(elements_post) + 1, _self_pairing(len(elements_post) + 1)
        )
        self._pre_sentinel = pre_lids[-1]
        self._post_sentinel = post_lids[-1]
        self._pre: dict[Element, int] = dict(zip(elements_pre, pre_lids))
        self._post: dict[Element, int] = dict(zip(elements_post, post_lids))

    # ------------------------------------------------------------------
    # plane queries
    # ------------------------------------------------------------------

    def pre_post(self, element: Element) -> tuple[int, int]:
        """The exact (pre, post) ranks (requires ordinal schemes)."""
        return (
            self.pre_scheme.ordinal_lookup(self._pre[element]),
            self.post_scheme.ordinal_lookup(self._post[element]),
        )

    def is_ancestor(self, ancestor: Element, descendant: Element) -> bool:
        """Grust's plane test: ``pre(a) < pre(d)`` and ``post(d) < post(a)``."""
        if ancestor is descendant:
            return False
        return (
            self.pre_scheme.compare(self._pre[ancestor], self._pre[descendant]) < 0
            and self.post_scheme.compare(self._post[descendant], self._post[ancestor]) < 0
        )

    def precedes(self, first: Element, second: Element) -> bool:
        """The ``following`` axis: disjoint subtrees, first fully before
        second ⇔ smaller pre AND smaller post."""
        return (
            self.pre_scheme.compare(self._pre[first], self._pre[second]) < 0
            and self.post_scheme.compare(self._post[first], self._post[second]) < 0
        )

    def __len__(self) -> int:
        return len(self._pre)

    # ------------------------------------------------------------------
    # editing
    # ------------------------------------------------------------------

    def insert_before(self, new: Element, sibling: Element) -> Element:
        """Insert ``new`` (a leaf) as ``sibling``'s preceding sibling."""
        if new.children:
            raise LabelingError("pre/post editing supports atomic elements")
        if sibling.parent is None:
            raise LabelingError("cannot insert a sibling of the root")
        pre_anchor = self._pre[sibling]
        post_anchor = self._post[leftmost_leaf(sibling)]
        self._register(new, pre_anchor, post_anchor)
        sibling.parent.insert(sibling.parent.children.index(sibling), new)
        return new

    def append_child(self, new: Element, parent: Element) -> Element:
        """Insert ``new`` (a leaf) as ``parent``'s last child."""
        if new.children:
            raise LabelingError("pre/post editing supports atomic elements")
        successor = self._preorder_successor_of_subtree(parent)
        pre_anchor = self._pre[successor] if successor is not None else self._pre_sentinel
        post_anchor = self._post[parent]
        self._register(new, pre_anchor, post_anchor)
        parent.append(new)
        return new

    def delete(self, element: Element) -> None:
        """Remove one element; its children are promoted in the model and
        keep their traversal positions in both orders."""
        if element is self.root:
            raise LabelingError("cannot delete the root")
        self.pre_scheme.delete(self._pre.pop(element))
        self.post_scheme.delete(self._post.pop(element))
        parent = element.parent
        assert parent is not None
        index = parent.children.index(element)
        parent.children[index : index + 1] = element.children
        for child in element.children:
            child.parent = parent
        element.children = []
        element.parent = None

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _register(self, new: Element, pre_anchor: int, post_anchor: int) -> None:
        self._pre[new] = self.pre_scheme.insert_before(pre_anchor)
        self._post[new] = self.post_scheme.insert_before(post_anchor)

    def _preorder_successor_of_subtree(self, element: Element) -> Element | None:
        """The first element visited after ``element``'s subtree in
        pre-order, or None at the document's end."""
        node: Element | None = element
        while node is not None:
            parent = node.parent
            if parent is None:
                return None
            siblings = parent.children
            index = siblings.index(node)
            if index + 1 < len(siblings):
                return siblings[index + 1]
            node = parent
        return None

    def verify(self) -> None:
        """Assert both orders agree with fresh traversals of the model."""
        for order, scheme, mapping in (
            (list(preorder(self.root)), self.pre_scheme, self._pre),
            (list(postorder(self.root)), self.post_scheme, self._post),
        ):
            for earlier, later in zip(order, order[1:]):
                if scheme.compare(mapping[earlier], mapping[later]) >= 0:
                    raise LabelingError("pre/post order drifted from the model")


def _self_pairing(n: int) -> list[int]:
    """A degenerate pairing for schemes that demand one (W-BOX-O): pair
    adjacent positions.  Pre/post structures label *elements*, not tag
    pairs, so the pairing carries no meaning here."""
    pairing = list(range(n))
    for index in range(0, n - 1, 2):
        pairing[index], pairing[index + 1] = index + 1, index
    return pairing


CONFIG = BoxConfig(block_bytes=1024)

DOCUMENT = """\
<journal>
  <volume n="1">
    <article id="a1"><title/><author/><author/></article>
    <article id="a2"><title/><author/></article>
  </volume>
  <volume n="2">
    <article id="a3"><title/><review/></article>
  </volume>
</journal>"""


def plot(doc: PrePostDocument) -> None:
    """Draw the plane as ASCII: x = pre rank, y = post rank."""
    points = {doc.pre_post(element): element for element in doc.root.iter()}
    size = len(points)
    print("    post")
    for post in range(size - 1, -1, -1):
        row = [f"{post:3d} "]
        for pre in range(size):
            element = points.get((pre, post))
            row.append(element.name[0] if element else "·")
        print(" ".join(row))
    print("     " + " ".join(str(pre % 10) for pre in range(size)) + "  pre")


def main() -> None:
    doc = PrePostDocument(lambda: BBox(CONFIG, ordinal=True), parse(DOCUMENT))
    print(f"{len(doc)} elements in the pre/post plane:\n")
    plot(doc)

    volumes = doc.root.find_all("volume")
    articles = doc.root.find_all("article")
    print("\nAxis checks (pure plane comparisons, no tree walks):")
    print(f"  volume 1 contains a2? {doc.is_ancestor(volumes[0], articles[1])}")
    print(f"  volume 2 contains a2? {doc.is_ancestor(volumes[1], articles[1])}")
    print(f"  a1 precedes a3?       {doc.precedes(articles[0], articles[2])}")

    print("\nDescendant counting as a quadrant query:")
    for volume in volumes:
        pre_v, post_v = doc.pre_post(volume)
        count = sum(
            1
            for element in doc.root.iter()
            if element is not volume
            and doc.pre_post(element)[0] > pre_v
            and doc.pre_post(element)[1] < post_v
        )
        print(f"  volume n={volume.attributes['n']}: {count} descendants "
              f"(point ({pre_v}, {post_v}))")

    # The plane stays exact under edits.
    print("\nAppending an <erratum/> to volume 1 and re-checking:")
    erratum = doc.append_child(Element("erratum"), volumes[0])
    doc.verify()
    pre_e, post_e = doc.pre_post(erratum)
    print(f"  erratum lands at ({pre_e}, {post_e}); "
          f"volume 1 contains it? {doc.is_ancestor(volumes[0], erratum)}")
    plot(doc)


if __name__ == "__main__":
    main()
