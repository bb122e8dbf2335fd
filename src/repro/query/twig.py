"""Twig (tree pattern) matching over order-based labels.

A twig is a small tree of tag names connected by ancestor/descendant edges
— the building block of XPath evaluation and the second operation (after
containment join) the paper's introduction names.  Every candidate's
labels are read in one ``lookup_many`` into an
:class:`~repro.query.streams.EpochView`, and each pattern tag keeps one
sorted list of its candidates' view positions.  A child pattern node's
matches under a bound element are one slice of its tag's list, two
bisections at the element's :meth:`~repro.query.streams.EpochView.span`,
which is correct because XML intervals properly nest.  A call costs the
one ``lookup_many``, then O((|A|+|D|)·⌈log₂ n⌉ + output) view positions
for the |A|+|D| candidates.

Example::

    pattern = TwigNode("site", [TwigNode("item", [TwigNode("mail")])])
    for binding in twig_match(doc, pattern):
        print(binding["item"].attributes["id"])
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Iterator

from ..core.document import LabeledDocument
from ..xml.model import Element
from .streams import document_view


@dataclass
class TwigNode:
    """One node of a twig pattern: a tag name plus descendant sub-patterns.

    A name may carry a ``#suffix`` (e.g. ``item#2``) to keep pattern names
    distinct when the same tag appears twice; the suffix is stripped when
    matching elements.
    """

    name: str
    children: "list[TwigNode]" = field(default_factory=list)

    def pattern_names(self) -> list[str]:
        """All pattern names (pre-order)."""
        names = [self.name]
        for child in self.children:
            names.extend(child.pattern_names())
        return names


def _strip(name: str) -> str:
    return name.split("#", 1)[0]


def twig_match(doc: LabeledDocument, pattern: TwigNode) -> list[dict[str, Element]]:
    """Every binding of the twig pattern against the document.

    Returns one dict per match, mapping each pattern name to its bound
    element.  Pattern names must be distinct (use ``#`` suffixes when a tag
    repeats).
    """
    if doc.root is None:
        return []
    names = pattern.pattern_names()
    if len(set(names)) != len(names):
        raise ValueError("twig pattern names must be distinct (use #suffixes)")
    tags = {_strip(name) for name in names}
    view, element_of = document_view(doc, (e for e in doc.root.iter() if e.name in tags))
    # The view's elements with their pairs, and one position list per tag.
    ordered = [(pair, element_of[pair]) for pair in view.pairs]
    positions: dict[str, list[int]] = {tag: [] for tag in tags}
    for position, (_pair, element) in enumerate(ordered):
        positions[element.name].append(position)

    def match_node(node: TwigNode, position: int) -> Iterator[dict[str, Element]]:
        """Bindings of ``node``'s subtree given ``node`` bound at ``position``."""
        pair, element = ordered[position]
        per_child: list[list[dict[str, Element]]] = []
        for child in node.children:
            start, limit = view.span(pair)
            candidates = positions[_strip(child.name)]
            lo = bisect_left(candidates, start)
            options = [
                binding
                for inner in candidates[lo : bisect_left(candidates, limit, lo)]
                for binding in match_node(child, inner)
            ]
            if not options:
                return  # this subtree cannot match
            per_child.append(options)
        for combination in itertools.product(*per_child):
            merged = {node.name: element}
            for binding in combination:
                merged.update(binding)
            yield merged

    return [
        match
        for position in positions[_strip(pattern.name)]
        for match in match_node(pattern, position)
    ]
