"""Document-depth sensitivity: the ``D`` term of Theorem 4.7.

W-BOX-O's amortized insert cost is ``O(D + log_B N)``: when a label range
is relabeled, the start records whose cached end values must be refreshed
all contain the range's left endpoint — one per *open ancestor*, i.e. at
most the document depth ``D``.  The other schemes have no depth term.

This bench appends children at the deepest point of three corpus shapes of
comparable size — DBLP-like (depth 3), XMark-like (depth ~7), and
Treebank-like (depth ~20) — and shows that only W-BOX-O's insert cost
climbs with depth.
"""

import pytest

from repro import BBox, LabeledDocument, WBox, WBoxO
from repro.xml import xmark_document
from repro.xml.model import Element, element_count, tree_depth

from benchmarks.corpora import dblp_document, treebank_document
from benchmarks.conftest import BENCH_CONFIG, fmt, record_table

INSERTS = 300

CORPORA = {
    "dblp": lambda: dblp_document(600, seed=1),
    "xmark": lambda: xmark_document(125, seed=1),
    "treebank": lambda: treebank_document(36, seed=1),
}

SCHEMES = {
    "W-BOX": lambda: WBox(BENCH_CONFIG),
    "W-BOX-O": lambda: WBoxO(BENCH_CONFIG),
    "B-BOX": lambda: BBox(BENCH_CONFIG),
}


def deepest_element(root):
    best, best_depth = root, 0
    stack = [(root, 0)]
    while stack:
        element, depth = stack.pop()
        if depth > best_depth:
            best, best_depth = element, depth
        for child in element.children:
            stack.append((child, depth + 1))
    return best


def run(corpus_name: str, scheme_name: str) -> tuple[float, int, int]:
    root = CORPORA[corpus_name]()
    doc = LabeledDocument(SCHEMES[scheme_name](), root)
    target = deepest_element(root)
    before = doc.scheme.stats.snapshot()
    for index in range(INSERTS):
        doc.append_child(Element(f"d{index}"), target)
    total = (doc.scheme.stats.snapshot() - before).total
    doc.verify_order()
    return total / INSERTS, tree_depth(root), element_count(root)


@pytest.mark.parametrize("corpus_name", sorted(CORPORA))
@pytest.mark.parametrize("scheme_name", sorted(SCHEMES))
def test_depth_runs(benchmark, scheme_name, corpus_name):
    mean, depth, elements = benchmark.pedantic(
        lambda: run(corpus_name, scheme_name), rounds=1, iterations=1
    )
    benchmark.extra_info.update(mean_io=mean, depth=depth, elements=elements)


def test_depth_sensitivity_table(benchmark):
    def build():
        rows = []
        outcome = {}
        for corpus_name in ("dblp", "xmark", "treebank"):
            row = [corpus_name]
            for scheme_name in ("W-BOX", "W-BOX-O", "B-BOX"):
                mean, depth, elements = run(corpus_name, scheme_name)
                outcome[(corpus_name, scheme_name)] = mean
                if scheme_name == "W-BOX":
                    row.insert(1, depth)
                    row.insert(2, elements)
                row.append(fmt(mean))
            rows.append(row)
        return rows, outcome

    rows, outcome = benchmark.pedantic(build, rounds=1, iterations=1)
    record_table(
        "table_depth_sensitivity",
        "Theorem 4.7's D term: mean I/O per element insertion at the deepest "
        f"point of three corpus shapes ({INSERTS} appends each)",
        ["corpus", "depth D", "elements", "W-BOX", "W-BOX-O", "B-BOX"],
        rows,
    )
    # Only W-BOX-O pays for depth: going from depth ~4 to depth ~20 adds
    # several I/Os per insert to it, while B-BOX stays flat and W-BOX's
    # drift is smaller than W-BOX-O's.
    wboxo_gap = outcome[("treebank", "W-BOX-O")] - outcome[("dblp", "W-BOX-O")]
    wbox_gap = outcome[("treebank", "W-BOX")] - outcome[("dblp", "W-BOX")]
    bbox_gap = abs(outcome[("treebank", "B-BOX")] - outcome[("dblp", "B-BOX")])
    assert wboxo_gap >= 2.5
    assert wboxo_gap > wbox_gap
    assert bbox_gap < 1.0
    # At every depth, W-BOX-O costs at least as much as plain W-BOX.
    for corpus_name in ("dblp", "xmark", "treebank"):
        assert outcome[(corpus_name, "W-BOX-O")] >= outcome[(corpus_name, "W-BOX")] * 0.9
