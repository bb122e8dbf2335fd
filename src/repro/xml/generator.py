"""Synthetic document generators.

The paper's concentrated and scattered experiments start from "a two-level
XML document with 2,000,000 elements"; :func:`two_level_document` builds the
scaled equivalent.  :func:`random_document` produces arbitrary-shape trees
for the test suite's property tests.
"""

from __future__ import annotations

import random

from .model import Element


def two_level_document(n_children: int, root_name: str = "root", child_name: str = "item") -> Element:
    """A root with ``n_children`` leaf children — ``n_children + 1`` elements.

    This is the base document of the paper's concentrated and scattered
    insertion experiments (scaled by the caller).
    """
    if n_children < 0:
        raise ValueError("n_children must be non-negative")
    root = Element(root_name)
    root.children = [Element(child_name) for _ in range(n_children)]
    for child in root.children:
        child.parent = root
    return root


def random_document(
    n_elements: int,
    seed: int | None = None,
    max_children: int = 8,
    depth_bias: float = 0.5,
    tag_pool: tuple[str, ...] = ("a", "b", "c", "d", "e"),
) -> Element:
    """A random tree with exactly ``n_elements`` elements.

    Growth: repeatedly pick an existing element and give it a new child.
    ``depth_bias`` controls how often the most recently added element is
    extended (values near 1 yield deep path-like trees, near 0 yields
    shallow bushy trees).  Deterministic for a fixed ``seed``.
    """
    if n_elements < 1:
        raise ValueError("a document needs at least the root element")
    rng = random.Random(seed)
    root = Element(rng.choice(tag_pool))
    nodes = [root]
    newest = root
    while len(nodes) < n_elements:
        if rng.random() < depth_bias:
            parent = newest
        else:
            parent = rng.choice(nodes)
        if len(parent.children) >= max_children:
            parent = rng.choice(nodes)
        child = parent.make_child(rng.choice(tag_pool))
        nodes.append(child)
        newest = child
    return root
