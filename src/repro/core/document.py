"""Binding between an XML tree and a labeling scheme.

A :class:`LabeledDocument` owns an :class:`~repro.xml.model.Element` tree
and keeps every element's (start LID, end LID) pair, exposing element-level
editing operations that keep the XML model and the labeling structure in
lock step:

* build from a tree (bulk load);
* insert an element as a previous sibling or last child;
* delete an element (children are promoted, the paper's semantics);
* insert / delete whole subtrees (bulk);
* label queries: labels, ordinal labels, ancestor tests.

The lid maps live in memory — they stand in for whatever element table a
real XML store would keep; the labeling structures themselves never need
them.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from ..errors import LabelingError
from ..xml.model import Element, Tag, TagKind, document_tags
from .batch import BatchOp, BatchRef, BatchResult
from .interface import LabelingScheme


def tag_pairing(tags: list[Tag]) -> list[int]:
    """``pairing[i]`` = index of tag ``i``'s partner (start <-> end)."""
    pairing = [0] * len(tags)
    stack: list[int] = []
    for index, tag in enumerate(tags):
        if tag.kind is TagKind.START:
            stack.append(index)
        else:
            start = stack.pop()
            pairing[start] = index
            pairing[index] = start
    if stack:
        raise LabelingError("tag stream is not well nested")
    return pairing


class LabeledDocument:
    """An XML document labeled by ``scheme``."""

    def __init__(self, scheme: LabelingScheme, root: Element | None = None) -> None:
        self.scheme = scheme
        self.root: Element | None = None
        self._start_lids: dict[Element, int] = {}
        self._end_lids: dict[Element, int] = {}
        if root is not None:
            self.load(root)

    # ------------------------------------------------------------------
    # loading
    # ------------------------------------------------------------------

    def load(self, root: Element) -> None:
        """Bulk load ``root``'s tree into the (empty) scheme."""
        if self.root is not None:
            raise LabelingError("document already loaded")
        tags = list(document_tags(root))
        pairing = tag_pairing(tags)
        lids = self.scheme.bulk_load(len(tags), pairing)
        self._adopt(tags, lids)
        self.root = root

    def _adopt(self, tags: list[Tag], lids: list[int]) -> None:
        for tag, lid in zip(tags, lids):
            if tag.kind is TagKind.START:
                self._start_lids[tag.element] = lid
            else:
                self._end_lids[tag.element] = lid

    # ------------------------------------------------------------------
    # lid and label access
    # ------------------------------------------------------------------

    def start_lid(self, element: Element) -> int:
        return self._start_lids[element]

    def end_lid(self, element: Element) -> int:
        return self._end_lids[element]

    def labels(self, element: Element):
        """(start label, end label) of ``element``."""
        return self.scheme.lookup_pair(
            self._start_lids[element], self._end_lids[element]
        )

    def ordinals(self, element: Element) -> tuple[int, int]:
        """(start, end) ordinal labels (requires ordinal support)."""
        return (
            self.scheme.ordinal_lookup(self._start_lids[element]),
            self.scheme.ordinal_lookup(self._end_lids[element]),
        )

    def is_ancestor(self, ancestor: Element, descendant: Element) -> bool:
        """Label-based ancestor test: ``l<(a) < l<(d)`` and
        ``l>(d) < l>(a)`` (two comparisons, no tree walk)."""
        if ancestor is descendant:
            return False
        before = self.scheme.compare(
            self._start_lids[ancestor], self._start_lids[descendant]
        )
        after = self.scheme.compare(
            self._end_lids[descendant], self._end_lids[ancestor]
        )
        return before < 0 and after < 0

    def is_last_child_by_ordinal(self, child: Element, parent: Element) -> bool:
        """The ordinal-labeling query from Section 3: ``child`` is
        ``parent``'s last child iff ``l>(child) + 1 == l>(parent)``."""
        child_end = self.scheme.ordinal_lookup(self._end_lids[child])
        parent_end = self.scheme.ordinal_lookup(self._end_lids[parent])
        return child_end + 1 == parent_end

    def elements(self) -> Iterable[Element]:
        """Every labeled element (no particular order)."""
        return self._start_lids.keys()

    def __len__(self) -> int:
        return len(self._start_lids)

    # ------------------------------------------------------------------
    # single-element editing
    # ------------------------------------------------------------------

    def insert_before(self, new: Element, reference: Element) -> Element:
        """Insert ``new`` as ``reference``'s immediately preceding sibling."""
        parent = reference.parent
        if parent is None:
            raise LabelingError("cannot insert a sibling of the root")
        if new.children:
            raise LabelingError("use insert_subtree for non-atomic elements")
        start_lid, end_lid = self.scheme.insert_element_before(
            self._start_lids[reference]
        )
        parent.insert(parent.children.index(reference), new)
        self._start_lids[new] = start_lid
        self._end_lids[new] = end_lid
        return new

    def append_child(self, new: Element, parent: Element) -> Element:
        """Insert ``new`` as ``parent``'s last child (insert before the
        parent's end tag)."""
        if new.children:
            raise LabelingError("use insert_subtree for non-atomic elements")
        start_lid, end_lid = self.scheme.insert_element_before(
            self._end_lids[parent]
        )
        parent.append(new)
        self._start_lids[new] = start_lid
        self._end_lids[new] = end_lid
        return new

    def delete_element(self, element: Element) -> None:
        """Delete one element; its children become children of its parent
        (the paper's delete semantics)."""
        parent = element.parent
        if parent is None and element.children:
            raise LabelingError("cannot delete the root while it has children")
        self.scheme.delete_element(
            self._start_lids.pop(element), self._end_lids.pop(element)
        )
        if parent is not None:
            index = parent.children.index(element)
            parent.children[index : index + 1] = element.children
            for child in element.children:
                child.parent = parent
            element.children = []
            element.parent = None
        elif self.root is element:
            self.root = None

    # ------------------------------------------------------------------
    # batched editing (group commit)
    # ------------------------------------------------------------------

    def _check_new(self, new: Element, pending: dict[Element, int]) -> None:
        if new.children:
            raise LabelingError("use insert_subtree for non-atomic elements")
        if new in self._start_lids or new in pending:
            raise LabelingError("element is already labeled")

    def _edit_anchor(
        self, element: Element, pending: dict[Element, int], start: bool
    ) -> int | BatchRef:
        """The anchor LID of ``element`` — a concrete LID when it is already
        labeled, a :class:`BatchRef` when it is created earlier in the same
        batch."""
        if element in pending:
            return BatchRef(pending[element], 0 if start else 1)
        lids = self._start_lids if start else self._end_lids
        try:
            return lids[element]
        except KeyError:
            raise LabelingError("anchor element is not part of this document") from None

    def apply_edits(self, edits: Sequence[tuple], group_size: int = 64) -> BatchResult:
        """Apply a sequence of element edits with group commit.

        ``edits`` items are tuples:

        * ``("insert_before", new, reference)`` — like :meth:`insert_before`;
        * ``("append_child", new, parent)`` — like :meth:`append_child`;
        * ``("delete", element)`` — like :meth:`delete_element`.

        The label-level work runs through
        :meth:`~repro.core.interface.LabelingScheme.execute_batch`, so
        adjacent edits that touch the same blocks share their I/O.  An edit
        may anchor on (or delete) an element created by an *earlier* edit in
        the same batch — the anchor is wired up with a :class:`BatchRef`.
        The Element tree and the lid maps are updated in edit order once the
        batch has executed.  Returns the :class:`BatchResult`.
        """
        pending: dict[Element, int] = {}  # new element -> its op position
        ops: list[BatchOp] = []
        for position, edit in enumerate(edits):
            action = edit[0]
            if action == "insert_before":
                _, new, reference = edit
                self._check_new(new, pending)
                if reference not in pending and reference.parent is None:
                    raise LabelingError("cannot insert a sibling of the root")
                anchor = self._edit_anchor(reference, pending, start=True)
                ops.append(BatchOp("insert_element_before", (anchor,)))
                pending[new] = position
            elif action == "append_child":
                _, new, parent = edit
                self._check_new(new, pending)
                anchor = self._edit_anchor(parent, pending, start=False)
                ops.append(BatchOp("insert_element_before", (anchor,)))
                pending[new] = position
            elif action == "delete":
                _, element = edit
                if element in pending:
                    created_at = pending.pop(element)
                    ops.append(
                        BatchOp(
                            "delete_element",
                            (BatchRef(created_at, 0), BatchRef(created_at, 1)),
                        )
                    )
                elif element in self._start_lids:
                    if element.parent is None and element.children:
                        raise LabelingError(
                            "cannot delete the root while it has children"
                        )
                    ops.append(
                        BatchOp(
                            "delete_element",
                            (self._start_lids[element], self._end_lids[element]),
                        )
                    )
                else:
                    raise LabelingError("cannot delete an unlabeled element")
            else:
                raise LabelingError(f"unknown edit action {action!r}")

        batch = self.scheme.execute_batch(ops, group_size=group_size)

        # Apply the tree / lid-map consequences, in edit order.
        for position, edit in enumerate(edits):
            action = edit[0]
            if action == "insert_before":
                _, new, reference = edit
                parent = reference.parent
                if parent is None:
                    raise LabelingError("cannot insert a sibling of the root")
                start_lid, end_lid = batch.results[position]
                parent.insert(parent.children.index(reference), new)
                self._start_lids[new] = start_lid
                self._end_lids[new] = end_lid
            elif action == "append_child":
                _, new, parent = edit
                start_lid, end_lid = batch.results[position]
                parent.append(new)
                self._start_lids[new] = start_lid
                self._end_lids[new] = end_lid
            else:
                _, element = edit
                self._start_lids.pop(element, None)
                self._end_lids.pop(element, None)
                parent = element.parent
                if parent is not None:
                    index = parent.children.index(element)
                    parent.children[index : index + 1] = element.children
                    for child in element.children:
                        child.parent = parent
                    element.children = []
                    element.parent = None
                elif self.root is element:
                    self.root = None
        return batch

    # ------------------------------------------------------------------
    # subtree editing
    # ------------------------------------------------------------------

    def insert_subtree_before(self, subtree: Element, reference: Element) -> None:
        """Insert an entire subtree as ``reference``'s preceding sibling."""
        self._insert_subtree(subtree, self._start_lids[reference])
        parent = reference.parent
        if parent is None:
            raise LabelingError("cannot insert a sibling of the root")
        parent.insert(parent.children.index(reference), subtree)

    def append_subtree(self, subtree: Element, parent: Element) -> None:
        """Insert an entire subtree as ``parent``'s last child."""
        self._insert_subtree(subtree, self._end_lids[parent])
        parent.append(subtree)

    def _insert_subtree(self, subtree: Element, anchor_lid: int) -> None:
        tags = list(document_tags(subtree))
        pairing = tag_pairing(tags)
        lids = self.scheme.insert_subtree_before(anchor_lid, len(tags), pairing)
        self._adopt(tags, lids)

    def move_subtree_before(self, element: Element, reference: Element) -> None:
        """Relocate ``element``'s whole subtree so it becomes
        ``reference``'s preceding sibling.

        Labels are surrendered and reacquired (one bulk range delete + one
        bulk subtree insert); the Element objects survive and get fresh
        LIDs.  ``reference`` must not be inside the moved subtree.
        """
        if reference is element or element.is_ancestor_of(reference):
            raise LabelingError("cannot move a subtree into itself")
        if reference.parent is None:
            raise LabelingError("cannot insert a sibling of the root")
        self._detach_subtree(element)
        self.insert_subtree_before(element, reference)

    def move_subtree_into(self, element: Element, parent: Element) -> None:
        """Relocate ``element``'s whole subtree to be ``parent``'s last
        child."""
        if parent is element or element.is_ancestor_of(parent):
            raise LabelingError("cannot move a subtree into itself")
        self._detach_subtree(element)
        self.append_subtree(element, parent)

    def _detach_subtree(self, element: Element) -> None:
        if element.parent is None:
            raise LabelingError("cannot move the root")
        self.scheme.delete_range(
            self._start_lids[element], self._end_lids[element]
        )
        for descendant in element.iter():
            self._start_lids.pop(descendant, None)
            self._end_lids.pop(descendant, None)
        element.parent.remove(element)

    def delete_subtree(self, element: Element) -> None:
        """Delete ``element`` and all its descendants in one bulk range
        delete."""
        first = self._start_lids[element]
        last = self._end_lids[element]
        self.scheme.delete_range(first, last)
        for descendant in list(element.iter()):
            self._start_lids.pop(descendant, None)
            self._end_lids.pop(descendant, None)
        parent = element.parent
        if parent is not None:
            parent.remove(element)
        elif self.root is element:
            self.root = None

    # ------------------------------------------------------------------
    # consistency checking (tests)
    # ------------------------------------------------------------------

    def verify_order(self) -> None:
        """Assert the scheme's labels agree with document order."""
        if self.root is None:
            return
        previous = None
        for tag in document_tags(self.root):
            lid = (
                self._start_lids[tag.element]
                if tag.kind is TagKind.START
                else self._end_lids[tag.element]
            )
            label = self.scheme.lookup(lid)
            if previous is not None and not previous < label:
                raise LabelingError(
                    f"labels out of order: {previous!r} !< {label!r} at {tag!r}"
                )
            previous = label
