"""Document shapes for the depth-sensitivity table and the shape tests.

:func:`dblp_document` and :func:`treebank_document` are the shallow and
the deep corpus of ``bench_table_depth_sensitivity.py``;
:func:`path_document` and :func:`wide_document` build exact shapes for
tests.  The base documents of the paper's own sequences live in
:mod:`repro.xml.generator`.
"""

from __future__ import annotations

import random

from repro.xml.model import Element


def path_document(depth: int, tag: str = "nest") -> Element:
    """A single root-to-leaf path of ``depth`` elements.

    Exercises the ``D`` term in the W-BOX-O insertion bound (Theorem 4.7).
    """
    if depth < 1:
        raise ValueError("depth must be at least 1")
    root = Element(f"{tag}0")
    node = root
    for level in range(1, depth):
        node = node.make_child(f"{tag}{level}")
    return root


def dblp_document(n_publications: int, seed: int = 1) -> Element:
    """A DBLP-shaped bibliography: extremely shallow and wide.

    The canonical "easy" shape for path-based labeling schemes (depth 3-4
    regardless of size) — the contrast case for the depth-sensitive costs
    of W-BOX-O (Theorem 4.7's ``D`` term).
    """
    if n_publications < 1:
        raise ValueError("n_publications must be at least 1")
    rng = random.Random(seed)
    root = Element("dblp")
    kinds = ("article", "inproceedings", "book")
    for number in range(n_publications):
        publication = root.make_child(rng.choice(kinds), key=f"pub/{number}")
        for _ in range(rng.randint(1, 4)):
            publication.make_child("author", text=f"Author {rng.randrange(500)}")
        publication.make_child("title", text=f"Title {number}")
        publication.make_child("year", text=str(rng.randint(1990, 2026)))
        if rng.random() < 0.5:
            publication.make_child("pages", text=f"{rng.randint(1, 400)}-{rng.randint(401, 800)}")
    return root


def treebank_document(n_sentences: int, seed: int = 1, max_depth: int = 18) -> Element:
    """A Treebank-shaped corpus: deeply recursive parse trees.

    The canonical "hard" shape for depth-sensitive schemes: linguistic
    parse trees nest clauses inside clauses, driving the document depth
    ``D`` far beyond data-oriented documents.
    """
    if n_sentences < 1:
        raise ValueError("n_sentences must be at least 1")
    rng = random.Random(seed)
    phrase_tags = ("S", "NP", "VP", "PP", "SBAR", "ADJP")
    word_tags = ("NN", "VB", "DT", "IN", "JJ", "PRP")

    def grow(node: Element, depth: int) -> None:
        if depth >= max_depth or (depth > 3 and rng.random() < 0.3):
            node.make_child(rng.choice(word_tags), text=f"w{rng.randrange(1000)}")
            return
        for _ in range(rng.randint(1, 2)):
            child = node.make_child(rng.choice(phrase_tags))
            grow(child, depth + 1)
        if rng.random() < 0.4:
            node.make_child(rng.choice(word_tags), text=f"w{rng.randrange(1000)}")

    root = Element("corpus")
    for _ in range(n_sentences):
        sentence = root.make_child("S")
        grow(sentence, 1)
    return root


def wide_document(fanouts: list[int], tag: str = "n") -> Element:
    """A complete tree with the given per-level fan-outs.

    ``fanouts=[3, 2]`` builds a root with 3 children, each with 2 children
    (10 elements total).  Useful for exact-shape assertions in tests.
    """
    root = Element(f"{tag}0")
    frontier = [root]
    for level, fanout in enumerate(fanouts, start=1):
        next_frontier: list[Element] = []
        for parent in frontier:
            for _ in range(fanout):
                next_frontier.append(parent.make_child(f"{tag}{level}"))
        frontier = next_frontier
    return root
