#!/usr/bin/env python3
"""A dynamic editing session: the scenario BOXes were built for.

A 'content management' session over a document that keeps changing:

* single-element inserts at adversarial (concentrated) positions,
* a bulk subtree import (the fragment-insertion case the paper's intro
  mentions — "a large number of elements inserted into one location"),
* subtree deletion,
* ordinal-label queries ("is this the last child?"),
* all while a read-heavy consumer keeps resolving labels through the
  Section 6 cache.

Compares how W-BOX, W-BOX-O, B-BOX and naive-k absorb the same session.

Run:  python examples/editing_session.py
"""

from repro import (
    BBox,
    BoxConfig,
    CachedLabelStore,
    LabeledDocument,
    NaiveScheme,
    WBox,
    WBoxO,
)
from repro.xml.generator import two_level_document
from repro.xml.model import Element, element_count
from repro.xml.parser import parse

CONFIG = BoxConfig(block_bytes=1024)

FRAGMENT = """\
<chapter id="insert-me">
  <title>On Gap Exhaustion</title>
  <section><p>one</p><p>two</p></section>
  <section><p>three</p><p>four</p><note/></section>
</chapter>"""


def run_session(scheme) -> dict:
    doc = LabeledDocument(scheme, two_level_document(300, "book", "chapter"))
    cache = CachedLabelStore(scheme, log_capacity=64)
    reader_refs = [
        cache.reference(doc.start_lid(chapter)) for chapter in doc.root.children[:40]
    ]
    stats = scheme.stats
    baseline = stats.snapshot()

    # Phase 1: adversarial concentrated inserts into one spot.
    anchor = doc.root.children[150]
    for index in range(400):
        new = Element(f"draft{index}")
        anchor = doc.insert_before(new, anchor)
    concentrated_io = (stats.snapshot() - baseline).total

    # Phase 2: a whole fragment arrives; use the bulk subtree insert.
    fragment = parse(FRAGMENT)
    before = stats.snapshot()
    doc.insert_subtree_before(fragment, doc.root.children[100])
    subtree_io = (stats.snapshot() - before).total

    # Phase 3: the read-heavy consumer.  It re-resolves its labels after
    # every small batch of edits; the modification log repairs its cached
    # values so most rounds cost no I/O at all.
    for ref in reader_refs:
        cache.get(ref)  # warm the cache after the bulk churn above
    before = stats.snapshot()
    tail_chapter = doc.root.children[-1]
    for _ in range(8):
        doc.append_child(Element("memo"), tail_chapter)  # a few edits...
        for ref in reader_refs:  # ...then many reads
            cache.get(ref)
    read_io = (stats.snapshot() - before).total

    # Phase 4: the fragment is retracted.
    before = stats.snapshot()
    doc.delete_subtree(fragment)
    delete_io = (stats.snapshot() - before).total

    doc.verify_order()
    result = {
        "scheme": scheme.name,
        "elements": element_count(doc.root),
        "concentrated": concentrated_io,
        "subtree": subtree_io,
        "cached reads": read_io,
        "hit rate": f"{cache.counters.repair_hit_ratio:.2f}",
        "subtree delete": delete_io,
        "label bits": scheme.label_bit_length(),
    }

    # Bonus: ordinal query when the scheme supports it.
    if scheme.supports_ordinal:
        last = doc.root.children[-1]
        result["last-child check"] = doc.is_last_child_by_ordinal(last, doc.root)
    return result


def main() -> None:
    schemes = [
        WBox(CONFIG),
        WBoxO(CONFIG),
        BBox(CONFIG),
        BBox(CONFIG, ordinal=True),
        NaiveScheme(4, CONFIG),
        NaiveScheme(16, CONFIG),
    ]
    rows = [run_session(scheme) for scheme in schemes]
    columns = list(rows[0])
    widths = {c: max(len(c), *(len(str(r.get(c, ""))) for r in rows)) for c in columns}
    print("  ".join(c.ljust(widths[c]) for c in columns))
    print("  ".join("-" * widths[c] for c in columns))
    for row in rows:
        print("  ".join(str(row.get(c, "")).ljust(widths[c]) for c in columns))
    print(
        "\nNumbers are block I/Os per phase. Note the naive scheme's "
        "concentrated-phase blowup and the BOXes' small bulk-subtree costs."
    )


if __name__ == "__main__":
    main()
