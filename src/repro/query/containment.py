"""Containment (structural) join over order-based labels.

The operation the paper's introduction motivates the labeling with: every
``(ancestor, descendant)`` pair with ``l<(a) < l<(d) < l>(d) < l>(a)``.
Both inputs' labels are read in one ``lookup_many`` into an
:class:`~repro.query.streams.EpochView`, in which an ancestor's
descendants are one range of the start-sorted array, its
:meth:`~repro.query.streams.EpochView.span`.  The descendant list's view
positions are sorted once, so each ancestor's matches are one slice of
them, found by two bisections: an operator costs the one ``lookup_many``,
then O((|A|+|D|)·⌈log₂ n⌉ + output) view positions.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Sequence

from ..core.document import LabeledDocument
from ..xml.model import Element
from .streams import document_view


def _slices(
    doc: LabeledDocument, ancestors: Sequence[Element], descendants: Sequence[Element]
) -> tuple[list[Element], list[tuple[Element, int, int]]]:
    """The ``descendants`` in document order, and each ancestor once, in
    document order, with the ``[lo, hi)`` slice of them it contains."""
    view, _ = document_view(doc, [*ancestors, *descendants])

    def span(element: Element) -> tuple[int, int]:
        return view.span((doc.start_lid(element), doc.end_lid(element)))

    # An element's own view position is the one before its span.
    inner = sorted({span(d)[0] - 1: d for d in descendants}.items())
    positions = [position for position, _d in inner]
    slices = []
    for (start, limit), ancestor in sorted({span(a): a for a in ancestors}.items()):
        lo = bisect_left(positions, start)
        slices.append((ancestor, lo, bisect_left(positions, limit, lo)))
    return [d for _p, d in inner], slices


def containment_join(
    doc: LabeledDocument, ancestors: Sequence[Element], descendants: Sequence[Element]
) -> list[tuple[Element, Element]]:
    """All (ancestor, descendant) pairs between the two element lists,
    grouped by ancestor, in document order."""
    inner, slices = _slices(doc, ancestors, descendants)
    return [(a, d) for a, lo, hi in slices for d in inner[lo:hi]]


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
    doc: LabeledDocument, ancestors: Sequence[Element], descendants: Sequence[Element]
) -> list[Element]:
    """Ancestors with at least one descendant in the second list, in
    document order — the existential form of XPath predicates
    (``//a[.//d]``): a non-empty slice."""
    return [a for a, lo, hi in _slices(doc, ancestors, descendants)[1] if hi > lo]


def containment_count(
    doc: LabeledDocument, ancestors: Sequence[Element], descendants: Sequence[Element]
) -> dict[Element, int]:
    """Per-ancestor descendant counts (``count(.//d)``) without pair
    materialization: a slice's length."""
    return {a: hi - lo for a, lo, hi in _slices(doc, ancestors, descendants)[1]}
