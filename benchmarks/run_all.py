#!/usr/bin/env python3
"""Standalone benchmark runner: regenerate every reproduced table and
figure without pytest.

    python benchmarks/run_all.py [--scale smoke|small|medium]

Equivalent to ``pytest benchmarks/ --benchmark-only`` but prints each table
as soon as it is ready and skips the timing machinery.  Tables are also
written to ``benchmarks/results/``.
"""

from __future__ import annotations

import argparse
import importlib
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))


class _FakeBenchmark:
    """Minimal stand-in for the pytest-benchmark fixture."""

    def __init__(self) -> None:
        self.extra_info: dict = {}

    def pedantic(self, fn, rounds=1, iterations=1, args=(), kwargs=None):
        return fn(*args, **(kwargs or {}))


#: (module, table-producing test function) per reproduced artifact.
TARGETS = [
    ("bench_fig5_concentrated", "test_fig5_table_and_ordering"),
    ("bench_fig6_concentrated_dist", "test_fig6_table"),
    ("bench_fig7_scattered", "test_fig7_table_and_ordering"),
    ("bench_fig8_xmark", "test_fig8_table_and_ordering"),
    ("bench_fig9_xmark_dist", "test_fig9_table"),
    ("bench_table_query_lookup", "test_query_table"),
    ("bench_table_bulk_vs_element", "test_bulk_vs_element_table"),
    ("bench_table_label_bits", "test_label_bits_table"),
    ("bench_table_caching_on", "test_caching_on_table"),
    ("bench_batch_throughput", "test_batch_throughput_table"),
    ("bench_backend_correlation", "test_backend_correlation_table"),
    ("bench_table_update_summary", "test_update_summary_table"),
    ("bench_table_ordpath", "test_ordpath_table"),
    ("bench_table_related_work", "test_related_work_table"),
    ("bench_table_depth_sensitivity", "test_depth_sensitivity_table"),
    ("bench_ablation_cachelog", "test_cachelog_table"),
    ("bench_ablation_weight_balance", "test_weight_balance_table"),
    ("bench_ablation_bbox_fanout", "test_fanout_table"),
    ("bench_hotpath", "test_hotpath_table"),
    ("bench_net_latency", "test_net_latency_table"),
    ("bench_replication", "test_replication_table"),
]


def _figure_plot(conftest, module_name: str) -> str:
    """Render the CCDF figure behind a distribution table as ASCII art."""
    from benchmarks.plotting import ascii_ccdf_plot, ccdf

    workload = "concentrated" if "fig6" in module_name else "xmark"
    figure = "Figure 6" if "fig6" in module_name else "Figure 9"
    series = {}
    for name in ("W-BOX", "B-BOX", "naive-16", "naive-256"):
        _, result = conftest.get_workload(workload, name)
        series[name] = ccdf(result.costs)
    return ascii_ccdf_plot(series, title=f"{figure} ({workload}), rendered")


def _figure_bars(conftest, module_name: str) -> str:
    """Render an amortized-cost figure as a bar chart."""
    from benchmarks.plotting import ascii_bar_chart

    workload = {
        "bench_fig5_concentrated": "concentrated",
        "bench_fig7_scattered": "scattered",
        "bench_fig8_xmark": "xmark",
    }[module_name]
    values = {}
    for name in ("B-BOX", "B-BOX-O", "W-BOX", "W-BOX-O", "naive-256", "naive-16", "naive-4"):
        _, result = conftest.get_workload(workload, name)
        values[name] = result.mean
    return ascii_bar_chart(
        values,
        title=f"mean block I/Os per element insertion ({workload}), rendered",
        unit=" I/O",
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", choices=["smoke", "small", "medium"], default="small")
    parser.add_argument("--only", help="substring filter on target module names")
    args = parser.parse_args()
    os.environ["REPRO_BENCH_SCALE"] = args.scale

    import benchmarks.conftest as conftest

    importlib.reload(conftest)

    failures = []
    for module_name, function_name in TARGETS:
        if args.only and args.only not in module_name:
            continue
        module = importlib.import_module(f"benchmarks.{module_name}")
        function = getattr(module, function_name)
        started = time.time()
        try:
            function(_FakeBenchmark())
            status = f"ok ({time.time() - started:.1f}s)"
        except AssertionError as error:
            failures.append((module_name, error))
            status = f"SHAPE ASSERTION FAILED: {error}"
        print(f"[{module_name}] {status}")
        if conftest._tables:
            print()
            print(conftest._tables[-1])
            print()
        if module_name in ("bench_fig6_concentrated_dist", "bench_fig9_xmark_dist"):
            print(_figure_plot(conftest, module_name))
            print()
        elif module_name in (
            "bench_fig5_concentrated",
            "bench_fig7_scattered",
            "bench_fig8_xmark",
        ):
            print(_figure_bars(conftest, module_name))
            print()
    if failures:
        print(f"{len(failures)} target(s) failed shape assertions", file=sys.stderr)
        return 1
    print(f"all tables regenerated (scale: {args.scale}); "
          f"files in {conftest.RESULTS_DIR}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
