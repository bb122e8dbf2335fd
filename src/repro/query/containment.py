"""Containment (structural) join over order-based labels.

The operation the paper's introduction motivates the labeling with: every
``(ancestor, descendant)`` pair with ``l<(a) < l<(d) < l>(d) < l>(a)``.
Both inputs' labels are read in one ``lookup_many`` into an
:class:`~repro.query.streams.EpochView`; an ancestor's descendants are
then one contiguous run of the view's start-sorted array.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from ..core.document import LabeledDocument
from ..xml.model import Element
from .streams import document_view


def _runs(
    doc: LabeledDocument, ancestors: Sequence[Element], descendants: Sequence[Element]
) -> Iterator[tuple[Element, Iterator[Element]]]:
    """Each ancestor, in document order, with its ``descendants`` in
    document order, from one view over both lists."""
    view, element_of = document_view(doc, [*ancestors, *descendants])
    outer, inner = set(ancestors), set(descendants)
    for pair in view.pairs:
        ancestor = element_of[pair]
        if ancestor in outer:
            run = (element_of[p] for p in view.descendants(pair))
            yield ancestor, (element for element in run if element in inner)


def containment_join(
    doc: LabeledDocument,
    ancestors: Sequence[Element],
    descendants: Sequence[Element],
) -> list[tuple[Element, Element]]:
    """All (ancestor, descendant) pairs between the two element lists,
    grouped by ancestor, in document order."""
    return [(a, d) for a, run in _runs(doc, ancestors, descendants) for d in run]


def containment_join_by_name(
    doc: LabeledDocument, ancestor_name: str, descendant_name: str
) -> list[tuple[Element, Element]]:
    """Containment join between all elements with the two tag names —
    the ``//a//d`` path expression."""
    if doc.root is None:
        return []
    ancestors = doc.root.find_all(ancestor_name)
    descendants = doc.root.find_all(descendant_name)
    return containment_join(doc, ancestors, descendants)


def containment_semijoin(
    doc: LabeledDocument,
    ancestors: Sequence[Element],
    descendants: Sequence[Element],
) -> list[Element]:
    """Ancestors with at least one descendant in the second list, in
    document order — the existential form of XPath predicates
    (``//a[.//d]``); each run stops at its first proof."""
    return [a for a, run in _runs(doc, ancestors, descendants) if any(True for _ in run)]


def containment_count(
    doc: LabeledDocument,
    ancestors: Sequence[Element],
    descendants: Sequence[Element],
) -> dict[Element, int]:
    """Per-ancestor descendant counts (``count(.//d)``) without pair
    materialization."""
    return {a: sum(1 for _ in run) for a, run in _runs(doc, ancestors, descendants)}
