"""Figure 9 — distribution of update cost, XMark insertion sequence.

Complementary CDF of per-insertion costs for the XMark build (Figure 8's
trace), log-log as in the paper.
"""

import pytest

from repro.workloads.metrics import summarize

from benchmarks.conftest import fmt, get_workload, record_table
from benchmarks.plotting import ccdf_at, geometric_thresholds

SCHEMES = ["W-BOX", "W-BOX-O", "B-BOX", "B-BOX-O", "naive-16", "naive-256"]


@pytest.mark.parametrize("scheme_name", SCHEMES)
def test_fig9_ccdf_series(benchmark, scheme_name):
    benchmark.pedantic(
        lambda: get_workload("xmark", scheme_name), rounds=1, iterations=1
    )
    _, result = get_workload("xmark", scheme_name)
    series = ccdf_at(result.costs, geometric_thresholds(max(result.costs)))
    fractions = [fraction for _, fraction in series]
    assert fractions == sorted(fractions, reverse=True)
    assert fractions[-1] == 0.0


def test_fig9_table(benchmark):
    def build():
        return {name: get_workload("xmark", name)[1] for name in SCHEMES}

    results = benchmark.pedantic(build, rounds=1, iterations=1)
    top = max(max(result.costs) for result in results.values())
    thresholds = geometric_thresholds(top)
    rows = []
    for name in SCHEMES:
        series = dict(ccdf_at(results[name].costs, thresholds))
        rows.append([name] + [fmt(series[t], 4) for t in thresholds])
    record_table(
        "fig9_xmark_dist",
        "Figure 9: fraction of insertions costing more than X I/Os "
        "(XMark sequence; X on a log2 grid)",
        ["scheme"] + [f">{t}" for t in thresholds],
        rows,
    )

    # The XMark build sits between the extremes: every BOX has *some*
    # reorganizations (nonzero tail beyond the per-leaf cost)...
    for name in ("W-BOX", "W-BOX-O", "B-BOX", "B-BOX-O"):
        tail = dict(ccdf_at(results[name].costs, [8]))
        assert tail[8] > 0.0, name
    # ...but the bulk of B-BOX insertions remain cheap.
    summary = summarize(results["B-BOX"].costs)
    assert summary["p50"] <= 6
