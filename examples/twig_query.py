#!/usr/bin/env python3
"""Twig pattern matching over labeled XML.

Twig matching (Bruno et al.'s holistic twig joins are the reference point
the paper cites) finds all embeddings of a small tree pattern connected by
ancestor/descendant edges.  With order-based labels, every structural test
is an interval containment check: the candidates' labels are read once and
sorted, and an element's descendants are one contiguous run.  For labels
cached across updates (the Section 6 layer), see ``editing_session.py``.

The example matches two patterns over an XMark-shaped auction site:

    open_auction            item
    ├── bidder              └── mailbox
    │   └── increase            └── mail
    └── seller

Run:  python examples/twig_query.py
"""

from repro import BBox, BoxConfig, LabeledDocument
from repro.query import TwigNode, twig_match
from repro.xml import xmark_document
from repro.xml.model import element_count

CONFIG = BoxConfig(block_bytes=1024)


def render(pattern: TwigNode, depth: int = 0) -> str:
    lines = ["  " * depth + pattern.name]
    for child in pattern.children:
        lines.append(render(child, depth + 1))
    return "\n".join(lines)


def main() -> None:
    site = xmark_document(n_items=30, seed=23)
    doc = LabeledDocument(BBox(CONFIG), site)
    print(f"Document: {element_count(site)} elements, scheme {doc.scheme.name}")

    auction_pattern = TwigNode(
        "open_auction",
        [TwigNode("bidder", [TwigNode("increase")]), TwigNode("seller")],
    )
    print("\nPattern:")
    print(render(auction_pattern, depth=1))
    with doc.scheme.store.measured() as op:
        matches = twig_match(doc, auction_pattern)
    print(f"  {len(matches)} embeddings, {op.total} block I/Os")
    for binding in matches[:3]:
        auction = binding["open_auction"].attributes.get("id", "?")
        amount = binding["increase"].text
        seller = binding["seller"].attributes.get("person", "?")
        print(f"    auction {auction}: bid +{amount} (seller {seller})")

    mail_pattern = TwigNode("item", [TwigNode("mailbox", [TwigNode("mail")])])
    print("\nPattern:")
    print(render(mail_pattern, depth=1))
    with doc.scheme.store.measured() as op:
        matches = twig_match(doc, mail_pattern)
    print(f"  {len(matches)} embeddings, {op.total} block I/Os")


if __name__ == "__main__":
    main()
