"""Tree-walking oracles for the label-based query operators.

:func:`brute_force_containment` and :func:`brute_force_twig` answer by
navigating the :class:`~repro.xml.model.Element` tree and never read a
label, so an operator that misreads the one-read
:class:`~repro.query.streams.EpochView` (a wrong run, a lost nesting
level, a pair mapped to the wrong element) gives a different answer
(``tests/test_query.py``, ``tests/test_integration.py``).
"""

from __future__ import annotations

import itertools
from typing import Iterator, Sequence

from repro.query import TwigNode
from repro.xml.model import Element


def _strip(name: str) -> str:
    return name.split("#", 1)[0]


def brute_force_containment(
    ancestors: Sequence[Element], descendants: Sequence[Element]
) -> list[tuple[Element, Element]]:
    """Every (ancestor, descendant) pair, by tree walking."""
    return [
        (ancestor, descendant)
        for ancestor in ancestors
        for descendant in descendants
        if ancestor.is_ancestor_of(descendant)
    ]


def brute_force_twig(root: Element, pattern: TwigNode) -> list[dict[str, Element]]:
    """Every binding of ``pattern`` under ``root``, by tree walking."""

    def match_node(node: TwigNode, element: Element) -> Iterator[dict[str, Element]]:
        per_child: list[list[dict[str, Element]]] = []
        for child in node.children:
            options = [
                binding
                for candidate in element.iter()
                if candidate is not element and candidate.name == _strip(child.name)
                for binding in match_node(child, candidate)
            ]
            if not options:
                return
            per_child.append(options)
        for combination in itertools.product(*per_child):
            merged = {node.name: element}
            for binding in combination:
                merged.update(binding)
            yield merged

    return [
        match
        for element in root.iter()
        if element.name == _strip(pattern.name)
        for match in match_node(pattern, element)
    ]
