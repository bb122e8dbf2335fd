#!/usr/bin/env python3
"""Containment (structural) join over an XMark auction site.

This is the workload the paper's introduction motivates: containment joins
"lie at the core of many fundamental XML operations", and order-based labels
make them a merge over label intervals instead of repeated tree traversals.

The example evaluates ``//item//mail`` and ``//person//emailaddress`` over
an XMark-shaped document three ways and reports I/O:

1. through a W-BOX with plain (uncached) label fetches,
2. through a B-BOX,
3. through the Section 6 caching + logging layer, where a second evaluation
   after a few document updates costs almost nothing.

Run:  python examples/containment_join.py
"""

from repro import BBox, BoxConfig, LabeledDocument, WBox
from repro.query import containment_join_by_name
from repro.query.axes import CachedIntervalFetcher
from repro.xml import xmark_document
from repro.xml.model import Element, element_count
from repro.xml.parser import parse
from repro.xml.writer import serialize

CONFIG = BoxConfig(block_bytes=1024)
JOINS = [("item", "mail"), ("person", "emailaddress"), ("open_auction", "increase")]


def evaluate_plain(doc: LabeledDocument) -> None:
    print(f"\n{doc.scheme.name}: plain label fetches")
    for ancestor, descendant in JOINS:
        with doc.scheme.store.measured() as op:
            pairs = containment_join_by_name(doc, ancestor, descendant)
        print(f"  //{ancestor}//{descendant:<14s} {len(pairs):5d} pairs, "
              f"{op.total:5d} block I/Os")


def evaluate_cached(doc: LabeledDocument) -> None:
    fetch = CachedIntervalFetcher(doc, log_capacity=256)
    print(f"\n{doc.scheme.name}: cached fetches (log capacity 256)")

    with doc.scheme.store.measured() as cold:
        pairs = containment_join_by_name(doc, "item", "mail", fetch)
    print(f"  cold run:   {len(pairs):5d} pairs, {cold.total:5d} block I/Os")

    with doc.scheme.store.measured() as warm:
        containment_join_by_name(doc, "item", "mail", fetch)
    print(f"  warm run:   {'':11s} {warm.total:5d} block I/Os")

    # A few updates later, the log lets cached labels be *repaired* instead
    # of refetched.
    mailbox = doc.root.find("mailbox")
    for _ in range(5):
        doc.append_child(Element("mail"), mailbox)
    with doc.scheme.store.measured() as after:
        pairs = containment_join_by_name(doc, "item", "mail", fetch)
    counters = fetch.counters
    print(f"  after 5 updates: {len(pairs):d} pairs, {after.total:5d} block I/Os "
          f"(hit rate {counters.repair_hit_ratio:.2f})")
    fetch.close()


def main() -> None:
    site = xmark_document(n_items=40, seed=11)
    print(f"XMark-shaped document: {element_count(site)} elements, "
          f"{len(site.find_all('item'))} items")

    # Each scheme labels its own copy of the document.
    for scheme in (WBox(CONFIG), BBox(CONFIG)):
        copy = parse(serialize(site))
        doc = LabeledDocument(scheme, copy)
        evaluate_plain(doc)

    cached_doc = LabeledDocument(WBox(CONFIG), parse(serialize(site)))
    evaluate_cached(cached_doc)


if __name__ == "__main__":
    main()
