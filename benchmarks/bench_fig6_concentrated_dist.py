"""Figure 6 — distribution of update cost, concentrated insertion sequence.

The paper plots, "for each I/O cost, the fraction of insertions in the
sequence that incurred *higher* than this cost" (a complementary CDF, both
axes log scale).  The interesting features: most B-BOX insertions are
near-constant, with a small "step" of expensive insertions where internal
nodes split; W-BOX shows a heavier relabeling tail; naive-k is a step
function — almost every insertion is either trivial or a full relabel.
"""

import pytest

from benchmarks.conftest import fmt, get_workload, record_table
from benchmarks.plotting import ccdf_at, geometric_thresholds

SCHEMES = ["W-BOX", "W-BOX-O", "B-BOX", "B-BOX-O", "naive-16", "naive-256"]


@pytest.mark.parametrize("scheme_name", SCHEMES)
def test_fig6_ccdf_series(benchmark, scheme_name):
    benchmark.pedantic(
        lambda: get_workload("concentrated", scheme_name), rounds=1, iterations=1
    )
    _, result = get_workload("concentrated", scheme_name)
    series = ccdf_at(result.costs, geometric_thresholds(max(result.costs)))
    fractions = [fraction for _, fraction in series]
    # A CCDF is non-increasing and ends at zero.
    assert fractions == sorted(fractions, reverse=True)
    assert fractions[-1] == 0.0


def test_fig6_table(benchmark):
    def build():
        return {name: get_workload("concentrated", name)[1] for name in SCHEMES}

    results = benchmark.pedantic(build, rounds=1, iterations=1)
    top = max(max(result.costs) for result in results.values())
    thresholds = geometric_thresholds(top)
    rows = []
    for name in SCHEMES:
        series = dict(ccdf_at(results[name].costs, thresholds))
        rows.append([name] + [fmt(series[t], 4) for t in thresholds])
    record_table(
        "fig6_concentrated_dist",
        "Figure 6: fraction of insertions costing more than X I/Os "
        "(concentrated sequence; X on a log2 grid)",
        ["scheme"] + [f">{t}" for t in thresholds],
        rows,
    )

    # Shape assertions mirroring the figure: the vast majority of B-BOX
    # insertions are cheap, while naive-k's cheap fraction collapses at the
    # relabeling cliff.
    bbox = dict(ccdf_at(results["B-BOX"].costs, [8]))
    assert bbox[8] < 0.2  # >80% of B-BOX inserts take <= 8 I/Os
    naive = results["naive-16"]
    cliff = dict(ccdf_at(naive.costs, [16]))
    assert cliff[16] > 0.02  # a persistent expensive tail: the relabels
