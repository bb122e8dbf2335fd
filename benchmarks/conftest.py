"""Shared benchmark infrastructure.

Every benchmark reproduces one table or figure from the paper's Section 7
(or an ablation DESIGN.md calls out).  Reproduced tables are printed in the
pytest terminal summary and written to ``benchmarks/results/``.

Scales: the paper ran 2,000,000-element base documents on 8 KB blocks in
C++.  The default ``small`` scale is 100,000 base elements and 1,000
inserts (100:1) on 1 KB blocks, so tree heights (2-3) and split behaviour
match while a full run stays in CPU-minutes.  Select with ``REPRO_BENCH_SCALE``
(``smoke`` / ``small`` / ``medium``).
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro import AncestryDynamic, AncestryScheme, BBox, BoxConfig, NaiveScheme, WBox, WBoxO
from repro.workloads import run_concentrated, run_scattered, run_xmark_build

#: Block configuration for all benchmarks (1 KB blocks; see module docstring).
BENCH_CONFIG = BoxConfig(block_bytes=1024)

SCALES = {
    # base/insert counts are elements.  The naive-k relabeling penalty is
    # proportional to N/B per exhausted gap, so the base document must be
    # large for the paper's crossover (even naive-256 losing to the BOXes)
    # to appear; "small" is the default and already shows it.
    "smoke": dict(base=2000, inserts=200, xmark_items=30),
    "small": dict(base=100_000, inserts=1000, xmark_items=120),
    "medium": dict(base=400_000, inserts=4000, xmark_items=600),
}

SCALE_NAME = os.environ.get("REPRO_BENCH_SCALE", "small")
SCALE = SCALES[SCALE_NAME]

#: The paper's naive-k ladder (Figures 5-9 use k up to 256).
NAIVE_KS = (1, 4, 16, 64, 256)


RESULTS_DIR = Path(__file__).parent / "results"

_tables: list[str] = []


def scheme_factories():
    """Fresh scheme instances for every labeling scheme in the evaluation."""
    factories = {
        "W-BOX": lambda: WBox(BENCH_CONFIG),
        "W-BOX-O": lambda: WBoxO(BENCH_CONFIG),
        "B-BOX": lambda: BBox(BENCH_CONFIG),
        "B-BOX-O": lambda: BBox(BENCH_CONFIG, ordinal=True),
    }
    for k in NAIVE_KS:
        factories[f"naive-{k}"] = (lambda k=k: NaiveScheme(k, BENCH_CONFIG))
    factories["ancestry"] = lambda: AncestryScheme(BENCH_CONFIG)
    factories["ancestry-dyn"] = lambda: AncestryDynamic(BENCH_CONFIG)
    return factories


def workload_inserts(scheme_name: str) -> int:
    """Insert count for a scheme.

    Under concentration naive-k relabels roughly every k/2 element inserts,
    and each relabel rewrites the whole LIDF — so small-k runs are capped
    (at enough inserts for ~30 relabels, which pins the mean) to keep a
    full benchmark run in CPU-minutes.  The reported metric is the
    per-insert mean, which converges after a handful of relabels.
    """
    if scheme_name.startswith("naive-"):
        k = int(scheme_name.split("-")[1])
        return min(SCALE["inserts"], max(50, 15 * k))
    if scheme_name == "ancestry":
        # The static ancestry scheme relabels on every concentrated
        # insert (same failure mode as naive-1); cap like naive-small.
        return min(SCALE["inserts"], 60)
    return SCALE["inserts"]


_trace_cache: dict[tuple[str, str], object] = {}
_scheme_cache: dict[tuple[str, str], object] = {}


def get_workload(workload: str, scheme_name: str):
    """Memoized (scheme, WorkloadResult) for one workload run.

    Figures 5/6 share the concentrated traces, 8/9 the XMark traces, and
    the query/bits tables reuse the post-workload structures, so each
    (workload, scheme) pair is executed once per session.
    """
    key = (workload, scheme_name)
    if key not in _trace_cache:
        scheme = scheme_factories()[scheme_name]()
        if workload == "concentrated":
            result = run_concentrated(scheme, SCALE["base"], workload_inserts(scheme_name))
        elif workload == "scattered":
            result = run_scattered(scheme, SCALE["base"], workload_inserts(scheme_name))
        elif workload == "xmark":
            result = run_xmark_build(scheme, SCALE["xmark_items"], prime_fraction=0.6)
        else:
            raise ValueError(f"unknown workload {workload}")
        _trace_cache[key] = result
        _scheme_cache[key] = scheme
    return _scheme_cache[key], _trace_cache[key]


def record_table(
    name: str,
    title: str,
    headers: list[str],
    rows: list[list],
    extra: dict | None = None,
) -> str:
    """Format a table, register it for the terminal summary, and persist it
    under benchmarks/results/ as aligned text, CSV, and machine-readable
    JSON (``BENCH_<name>.json``).  ``extra`` lands verbatim in the JSON —
    benchmarks use it for per-scheme wall-clock and I/O breakdowns."""
    widths = [
        max(len(str(header)), *(len(str(row[i])) for row in rows)) if rows else len(str(header))
        for i, header in enumerate(headers)
    ]
    lines = [title]
    lines.append("  ".join(str(h).ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(str(cell).ljust(w) for cell, w in zip(row, widths)))
    text = "\n".join(lines)
    _tables.append(text)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    import csv

    with open(RESULTS_DIR / f"{name}.csv", "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(headers)
        writer.writerows(rows)
    import json

    payload = {
        "name": name,
        "title": title,
        "scale": SCALE_NAME,
        "headers": headers,
        "rows": rows,
    }
    if extra is not None:
        payload["extra"] = extra
    (RESULTS_DIR / f"BENCH_{name}.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )
    return text


def fmt(value: float, digits: int = 2) -> str:
    return f"{value:.{digits}f}"


@pytest.hookimpl(trylast=True)
def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _tables:
        return
    terminalreporter.write_sep("=", f"reproduced tables and figures (scale: {SCALE_NAME})")
    for table in _tables:
        terminalreporter.write_line("")
        for line in table.splitlines():
            terminalreporter.write_line(line)
