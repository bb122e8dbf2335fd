#!/usr/bin/env python3
"""Containment (structural) join over an XMark auction site.

This is the workload the paper's introduction motivates: containment joins
"lie at the core of many fundamental XML operations", and order-based labels
make them a scan over label intervals instead of repeated tree traversals.

The example evaluates ``//item//mail``, ``//person//emailaddress`` and
``//open_auction//increase`` over an XMark-shaped document through a W-BOX
and a B-BOX and reports I/O.  Each join reads both inputs' labels in one
``lookup_many``, so it costs the blocks those labels share, counted once.
For labels cached across updates (the Section 6 layer), see
``editing_session.py``.

Run:  python examples/containment_join.py
"""

from repro import BBox, BoxConfig, LabeledDocument, WBox
from repro.query import containment_join_by_name
from repro.xml import xmark_document
from repro.xml.model import element_count
from repro.xml.parser import parse
from repro.xml.writer import serialize

CONFIG = BoxConfig(block_bytes=1024)
JOINS = [("item", "mail"), ("person", "emailaddress"), ("open_auction", "increase")]


def evaluate_joins(doc: LabeledDocument) -> None:
    print(f"\n{doc.scheme.name}: one label read per join")
    for ancestor, descendant in JOINS:
        with doc.scheme.store.measured() as op:
            pairs = containment_join_by_name(doc, ancestor, descendant)
        print(f"  //{ancestor}//{descendant:<14s} {len(pairs):5d} pairs, "
              f"{op.total:5d} block I/Os")


def main() -> None:
    site = xmark_document(n_items=40, seed=11)
    print(f"XMark-shaped document: {element_count(site)} elements, "
          f"{len(site.find_all('item'))} items")

    # Each scheme labels its own copy of the document.
    for scheme in (WBox(CONFIG), BBox(CONFIG)):
        copy = parse(serialize(site))
        doc = LabeledDocument(scheme, copy)
        evaluate_joins(doc)


if __name__ == "__main__":
    main()
