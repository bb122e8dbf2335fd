"""The "Other findings" label-width discussion of Section 7, as a table.

Paper: with 4,000,000 labels the minimum is 22 bits; BOX labels stay
comfortably within a 32-bit machine word, while naive-k needs ``log N + k``
bits — naive-32 and up exceed the word at the paper's scale and "generally
run slower because of inefficiencies in processing such long labels".

We report, for each scheme after the concentrated workload: the measured
maximum label width and the analytical width (Theorem 4.4 / 5.1 bound for
the BOXes at current size) — plus the achievable widths projected to the
paper's 4M labels, which decide the machine-word question.
"""

import pytest

from repro.config import MACHINE_WORD_BITS

from benchmarks.labelbits import (
    ancestry_bulk_label_bits,
    ancestry_label_bits_bound,
    bbox_bulk_label_bits,
    bbox_label_bits_bound,
    dynamic_ancestry_bulk_label_bits,
    dynamic_ancestry_label_bits_bound,
    fits_machine_word,
    minimum_label_bits,
    naive_label_bits,
    wbox_bulk_label_bits,
    wbox_label_bits_bound,
    wbox_supported_labels,
)
from benchmarks.conftest import (
    BENCH_CONFIG,
    NAIVE_KS,
    SCALE_NAME,
    get_workload,
    record_table,
)

SCHEMES = (
    ["W-BOX", "W-BOX-O", "B-BOX", "B-BOX-O"]
    + [f"naive-{k}" for k in NAIVE_KS]
    + ["ancestry", "ancestry-dyn"]
)
PAPER_LABELS = 4_000_000


def _bound(name: str, n_labels: int) -> int:
    if name.startswith("W-BOX"):
        return wbox_label_bits_bound(n_labels, BENCH_CONFIG)
    if name.startswith("B-BOX"):
        return bbox_label_bits_bound(n_labels, BENCH_CONFIG)
    if name == "ancestry":
        return ancestry_label_bits_bound(n_labels)
    if name == "ancestry-dyn":
        return dynamic_ancestry_label_bits_bound(n_labels)
    k = int(name.split("-")[1])
    return naive_label_bits(n_labels, k)


def _achievable(name: str, n_labels: int) -> int:
    if name.startswith("W-BOX"):
        return wbox_bulk_label_bits(n_labels, BENCH_CONFIG)
    if name.startswith("B-BOX"):
        return bbox_bulk_label_bits(n_labels, BENCH_CONFIG)
    if name == "ancestry":
        return ancestry_bulk_label_bits(n_labels)
    if name == "ancestry-dyn":
        return dynamic_ancestry_bulk_label_bits(n_labels)
    k = int(name.split("-")[1])
    return naive_label_bits(n_labels, k)


def test_label_bits_table(benchmark):
    def build():
        rows = []
        for name in SCHEMES:
            scheme, _ = get_workload("concentrated", name)
            n = scheme.label_count()
            measured = scheme.label_bit_length()
            projected = _achievable(name, PAPER_LABELS)
            rows.append(
                [
                    name,
                    measured,
                    _bound(name, n),
                    "yes" if fits_machine_word(measured) else "NO",
                    projected,
                    "yes" if fits_machine_word(projected) else "NO",
                ]
            )
        return rows

    rows = benchmark.pedantic(build, rounds=1, iterations=1)
    record_table(
        "table_label_bits",
        'Section 7 "Other findings": label widths in bits (measured after the '
        f"concentrated workload; projection = bulk-loaded {PAPER_LABELS:,} "
        f"labels; machine word = {MACHINE_WORD_BITS} bits)",
        ["scheme", "measured bits", "bound", "fits word", "bits @4M", "fits word @4M"],
        rows,
    )

    by_name = {row[0]: row for row in rows}
    # The paper's claim: naive-32 and larger overflow the machine word at
    # 4M labels (our ladder has 64 and 256)...
    assert by_name["naive-64"][5] == "NO"
    assert by_name["naive-256"][5] == "NO"
    # ...while the BOXes stay within it.
    for box in ("W-BOX", "B-BOX", "B-BOX-O"):
        assert by_name[box][5] == "yes"
    # And at current size everything the BOXes produced fits the word.
    for box in ("W-BOX", "W-BOX-O", "B-BOX", "B-BOX-O"):
        assert by_name[box][3] == "yes"
    # The related-work ancestry schemes: the static heavy-path layout
    # produces strictly shorter labels than W-BOX at this scale (its
    # whole selling point — near-minimum width), and the dynamic variant
    # stays within its lg n + lg lg n + O(1) bound while still fitting
    # the machine word at the paper's 4M labels.
    # (At smoke scale the documents are tiny and both floors meet, so the
    # strict comparison is judged at the real scales only.)
    if SCALE_NAME != "smoke":
        assert by_name["ancestry"][1] < by_name["W-BOX"][1], (
            f"ancestry measured {by_name['ancestry'][1]} bits, "
            f"W-BOX {by_name['W-BOX'][1]}"
        )
    assert by_name["ancestry"][1] <= by_name["W-BOX"][1]
    for name in ("ancestry", "ancestry-dyn"):
        assert by_name[name][1] <= by_name[name][2], f"{name} exceeds its bound"
        assert by_name[name][3] == "yes" and by_name[name][5] == "yes"


def test_minimum_and_supported_labels(benchmark):
    def compute():
        return (
            minimum_label_bits(PAPER_LABELS),
            wbox_supported_labels(MACHINE_WORD_BITS, BENCH_CONFIG),
        )

    minimum, supported = benchmark.pedantic(compute, rounds=1, iterations=1)
    benchmark.extra_info["min_bits_at_4M"] = minimum
    benchmark.extra_info["wbox_labels_in_32bit_word"] = supported
    assert minimum == 22
    # A 32-bit W-BOX label supports millions of labels even at 1 KB blocks.
    assert supported > 1_000_000
