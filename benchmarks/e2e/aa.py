"""A/A self-check: does the benchmark agree with itself?

Two back-to-back sets of K full runs of the same checkout, run ``i`` of
either set with seed ``seed + i``.  Per workload × end-to-end metric it
prints both medians, both quartile pairs (``statistics.quantiles(n=4)``),
each set's spread (IQR as a share of the median) and the relative gap of
the medians, and judges them against the metric's bound in
``BENCHMARK.json``: the spread of either set (``setup_s`` excepted) and
the worsening from set A to set B must stay within it.  Byte counts of a
single-stream workload (one connection, or in-process) must be *identical*
between the two runs of one seed — a difference means the tape is not
deterministic.  Results are written
to ``results/AA.json`` beside this file.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
REPO = HERE.parent.parent

#: Metrics that must repeat to the byte on single-stream workloads.
EXACT = ("write_bytes_per_op", "disk_bytes_per_label")
SINGLE_STREAM = ("read_point", "write_small", "embed_xmark")


def _one_run(workload: str, seed: int, seconds: int) -> dict[str, Any] | None:
    command = [
        sys.executable, "-m", "benchmarks.e2e", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    done = subprocess.run(command, cwd=REPO, capture_output=True, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        print(f"FAIL {workload} seed {seed}: exit {done.returncode}\n"
              f"{done.stdout[-2000:]}\n{done.stderr[-2000:]}")
        return None
    return json.loads(lines[-1])


def _summary(values: list[float]) -> dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"q1": q1, "median": median, "q3": q3, "spread": (q3 - q1) / median if median else 0.0}


def run_aa(k: int, seed: int) -> int:
    spec = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    started = time.monotonic()
    report: dict[str, Any] = {"k": k, "seed": seed, "seconds": seconds, "workloads": {}}
    failures = 0
    for workload in (w["name"] for w in spec["workloads"]):
        sets = []
        for label in "AB":
            runs = []
            for index in range(k):
                result = _one_run(workload, seed + index, seconds)
                if result is None or not result["correct"] or result["failed"]:
                    print(f"FAIL {workload} set {label} seed {seed + index}: incorrect run")
                    failures += 1
                if result is not None:
                    runs.append({n: cell["value"] for n, cell in result["metrics"].items()})
            sets.append(runs)
        rows = {}
        for metric in spec["end_to_end"]:
            name, bound, better = metric["name"], metric["bound"], metric["better"]
            a = _summary([run[name] for run in sets[0]])
            b = _summary([run[name] for run in sets[1]])
            worse = (a["median"] - b["median"] if better == "higher" else b["median"] - a["median"])
            gap = worse / a["median"] if a["median"] else 0.0
            passed = gap <= bound and (
                name == "setup_s" or max(a["spread"], b["spread"]) <= bound
            )
            exact = None
            if name in EXACT and workload in SINGLE_STREAM:
                exact = all(x[name] == y[name] for x, y in zip(*sets))
                passed = passed and exact
            failures += not passed
            rows[name] = {
                "A": a, "B": b, "gap": gap, "bound": bound, "pass": passed, "exact": exact,
                "values": [[run[name] for run in runs] for runs in sets],
            }
            print(
                f"{'PASS' if passed else 'FAIL'} {workload:12s} {name:22s} "
                f"A {a['median']:.6g} [{a['q1']:.6g}, {a['q3']:.6g}] spread {a['spread']:.2%}  "
                f"B {b['median']:.6g} [{b['q1']:.6g}, {b['q3']:.6g}] spread {b['spread']:.2%}  "
                f"gap {gap:+.2%} bound {bound:.0%}"
                + ("" if exact is None else f"  exact={exact}"),
                flush=True,
            )
        report["workloads"][workload] = rows
    report["wall_s"] = time.monotonic() - started
    report["pass"] = failures == 0
    out = HERE / "results" / "AA.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(f"{'PASS' if failures == 0 else 'FAIL'}: {failures} failing cell(s); wrote {out}")
    return 0 if failures == 0 else 1
