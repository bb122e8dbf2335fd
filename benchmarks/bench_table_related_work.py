"""The related-work relabeling landscape (Section 2), as a table.

The paper situates the BOXes against the in-memory order-maintenance line:

    "The classic paper by Dietz [8] gives an algorithm that relabels
    O(log N) tags per insertion, amortized.  With one extra level of
    indirection, the cost can be brought down to O(1) [9].  … In [4],
    Bender et al. give a simplified version …"

and against the naive scheme, which relabels *everything* when any gap
dies.  This bench runs the concentrated adversary against three points on
that spectrum — naive-k (Θ(N) tags per relabel), the Bender-style
tag-range structure of ``core/listorder.py`` (O(log N) amortized), and
ORDPATH (zero relabels, unbounded label growth) — and reports tags
relabeled per insertion plus the resulting label widths.
"""

import math

import pytest

from repro import NaiveScheme, OrdPath
from benchmarks.listorder import OrderList
from repro.workloads import run_concentrated

from benchmarks.conftest import BENCH_CONFIG, SCALE, fmt, record_table

BASE = 2000  # in-memory structures: element counts, not blocks


def run_bender() -> tuple[OrderList, int]:
    ol = OrderList(tag_bits=48)
    anchor = ol.insert_first()
    for _ in range(BASE):
        ol.insert_before(anchor)
    inserts = SCALE["inserts"]
    target = anchor
    for index in range(inserts):
        new = ol.insert_before(target)
        if index % 2 == 0:
            target = new
    return ol, inserts


def run_naive(k: int) -> tuple[NaiveScheme, int]:
    scheme = NaiveScheme(k, BENCH_CONFIG)
    result = run_concentrated(scheme, BASE, min(SCALE["inserts"], max(50, 15 * k)))
    return scheme, 2 * len(result.costs)


def run_ordpath() -> tuple[OrdPath, int]:
    scheme = OrdPath(BENCH_CONFIG)
    result = run_concentrated(scheme, BASE, SCALE["inserts"])
    return scheme, 2 * len(result.costs)


def test_bender_amortized_relabeling(benchmark):
    ol, inserts = benchmark.pedantic(run_bender, rounds=1, iterations=1)
    per_insert = ol.relabeled_items / inserts
    benchmark.extra_info["tags_relabeled_per_insert"] = per_insert
    # Dietz's bound: O(log N) amortized.
    assert per_insert < 8 * math.log2(BASE + inserts)


def test_related_work_table(benchmark):
    def build():
        rows = []
        outcome = {}
        ol, bender_inserts = run_bender()
        outcome["bender"] = ol.relabeled_items / bender_inserts
        rows.append(
            [
                "Bender et al. [4] (in-memory)",
                fmt(outcome["bender"]),
                ol.tag_bits,
                "O(log N) amortized",
            ]
        )
        for k in (16, 256):
            scheme, label_inserts = run_naive(k)
            per_insert = scheme.relabeled_items / label_inserts
            outcome[f"naive-{k}"] = per_insert
            rows.append(
                [
                    f"naive-{k}",
                    fmt(per_insert),
                    scheme.label_bit_length(),
                    "Theta(N) per relabel",
                ]
            )
        scheme, _ = run_ordpath()
        outcome["ordpath"] = 0.0
        rows.append(
            ["ORDPATH [15] (immutable)", "0.00", scheme.label_bit_length(), "Omega(N)-bit labels"]
        )
        return rows, outcome

    rows, outcome = benchmark.pedantic(build, rounds=1, iterations=1)
    record_table(
        "table_related_work",
        "Section 2's relabeling spectrum under the concentrated adversary: "
        "tags relabeled per label insertion and resulting label width",
        ["approach", "tags relabeled / insert", "label bits", "regime"],
        rows,
    )
    # The spectrum's shape: naive-16 relabels far more tags per insertion
    # than the Bender-style structure (the gap is Theta(N / (k log N)) and
    # widens with the document); ORDPATH relabels none.
    assert outcome["naive-16"] > 3 * outcome["bender"]
    assert outcome["bender"] > 0
