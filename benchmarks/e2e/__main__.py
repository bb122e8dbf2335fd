"""``python -m benchmarks.e2e`` — the one end-to-end benchmark command.

Usage (from the repository root)::

    python3 -m benchmarks.e2e --workload write_small --seed 3 --seconds 16 --trace 0
    python3 -m benchmarks.e2e                  # all four workloads, end-to-end metrics
    python3 -m benchmarks.e2e --trace          # all four, per-layer metrics + span dumps
    python3 -m benchmarks.e2e --smoke          # wiring check, numbers not comparable
    python3 -m benchmarks.e2e --aa 5           # A/A self-check, writes results/AA.json

Every metric is printed by name with its unit, every reply is checked, and
the exit code is non-zero on any wrong answer.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.  See ``README.md`` beside this file for definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

_HERE = Path(__file__).resolve().parent
_REPO = _HERE.parent.parent

#: Measured seconds a full run is sized for (``run_seconds`` in BENCHMARK.json).
RUN_SECONDS = 16

#: (name, unit) of the end-to-end metrics, the same on every workload.
END_TO_END = (
    ("setup_s", "s"),
    ("ops_s", "1/s"),
    ("p50_ms", "ms"),
    ("cpu_ms_per_op", "ms"),
    ("peak_rss_mb", "MB"),
    ("write_bytes_per_op", "B"),
    ("disk_bytes_per_label", "B"),
)


def _reexec_with_fixed_hash_seed() -> None:
    """``PYTHONHASHSEED`` only takes effect at interpreter start, so the
    harness restarts itself once with it pinned (children inherit it)."""
    if os.environ.get("PYTHONHASHSEED") != "0":
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable, "-m", "benchmarks.e2e", *sys.argv[1:]], env)


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", help="one workload (default: all four, in turn)")
    parser.add_argument("--seed", type=int, default=1, help="tape seed (default 1)")
    parser.add_argument("--seconds", type=float, default=float(RUN_SECONDS),
                        help=f"length the measured phase is sized for (default {RUN_SECONDS})")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0, choices=(0, 1),
                        help="1: traced run at one fifth length, per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="every workload at ~1/20 length; numbers are NOT comparable")
    parser.add_argument("--aa", nargs="?", type=int, const=5, default=0, metavar="K",
                        help="A/A self-check: two sets of K full runs (default 5)")
    return parser.parse_args(argv)


def _end_to_end(outcome: Any) -> dict[str, float]:
    from .harness import exact_slices, median_of, timing_metrics

    extra = outcome.extra
    metrics = timing_metrics(outcome.slices)
    metrics["setup_s"] = median_of(extra["setup_times"])
    metrics["peak_rss_mb"] = extra["peak_rss_mb"]
    metrics["disk_bytes_per_label"] = extra["disk_bytes_per_label"]
    if "write_bytes" in extra:  # embedded: the whole measured phase incl. save_scheme
        metrics["write_bytes_per_op"] = extra["write_bytes"] / outcome.attempted
    else:
        chosen = exact_slices(outcome.slices)
        written = sum(s.wchar + s.reply_bytes for s in chosen)
        metrics["write_bytes_per_op"] = written / sum(s.ops for s in chosen)
    return metrics


def run_workload(name: str, args: argparse.Namespace, env: dict[str, Any]) -> dict[str, Any]:
    """One workload, one result record (the contract's four keys plus the
    environment the numbers were taken in)."""
    from . import layers, tracing
    from .harness import filesystem_of, make_data_parent, median_of, timing_metrics
    from .workloads import WORKLOADS, Context

    run, _why = WORKLOADS[name]
    seconds = args.seconds / 20 if args.smoke else args.seconds / 5 if args.trace else args.seconds
    repeats = 1 if (args.smoke or args.trace) else 3
    parent, tmpfs = make_data_parent()
    data_fs = filesystem_of(parent)
    started = time.monotonic()
    try:
        plain = run(Context(args.seed, seconds, repeats, parent / "plain"))
        if args.trace:
            recorder = tracing.Recorder()
            recorder.install()
            try:
                traced = run(Context(args.seed, seconds, repeats, parent / "traced", recorder))
            finally:
                recorder.uninstall()
            traces = [dict(recorder.export(), role="harness"), *traced.extra.pop("traces", [])]
            # Recovery and shutdown are timed on the untraced server: the
            # traced one also writes its span dump before it exits.
            for key in ("recover_ms", "shutdown_checkpoint_ms"):
                if key in plain.extra:
                    traced.extra[key] = plain.extra[key]
            metrics, table = layers.layer_metrics(
                traced, traces, timing_metrics(plain.slices)["ops_s"],
                traced.extra.get("counted_io"),
            )
            out = _HERE / "results" / f"trace-{name}.json"
            out.parent.mkdir(exist_ok=True)
            out.write_text(json.dumps(traces), encoding="utf-8")
            units = {metric: unit for metric, unit, _better in layers.PER_LAYER}
            outcomes = [plain, traced]
            env["trace"] = {
                "table": table,
                "missing_targets": sorted({m for t in traces for m in t["missing"]}),
                "dropped_spans": sum(t["dropped"] for t in traces),
                "spans": sum(len(th["spans"]) for t in traces for th in t["threads"]),
            }
            if env["trace"]["dropped_spans"]:
                traced.wrong.append("trace invalid: spans were dropped at the per-thread cap")
        else:
            metrics = _end_to_end(plain)
            units = dict(END_TO_END)
            outcomes = [plain]
    finally:
        shutil.rmtree(parent, ignore_errors=True)
    refs = [item.ref_ms for outcome in outcomes for item in outcome.slices]
    wrong = [message for outcome in outcomes for message in outcome.wrong]
    failed = sum(outcome.failed for outcome in outcomes)
    return {
        "workload": name,
        # Closed loops on a healthy server: any failure invalidates the run.
        "correct": not wrong and failed == 0,
        "attempted": sum(outcome.attempted for outcome in outcomes),
        "failed": failed,
        "metrics": {key: {"value": metrics[key], "unit": units[key]} for key in units},
        "wrong": wrong,
        "env": dict(
            env, tmpfs=tmpfs, data_fs=data_fs, seed=args.seed, seconds=seconds,
            comparable=not args.smoke and args.seconds == RUN_SECONDS,
            slices=len(outcomes[-1].slices),
            ops_per_slice=sorted({item.ops for item in outcomes[-1].slices}),
            host_ref_ms={"median": median_of(refs), "min": min(refs)},
            raw_timings=timing_metrics(outcomes[0].slices, normalise=False),
            wall_s=time.monotonic() - started,
            detail={k: v for k, v in outcomes[-1].extra.items()
                    if k in ("io_per_insert", "items", "recover_ms",
                             "shutdown_checkpoint_ms", "save_ms", "golden_io")},
        ),
    }


def _print_record(record: dict[str, Any]) -> None:
    label = "" if record["env"]["comparable"] else "  [NOT COMPARABLE: smoke or odd length]"
    print(f"== {record['workload']}{label}")
    for key, cell in record["metrics"].items():
        print(f"{record['workload']:12s} {key:40s} {cell['value']:16.6f} {cell['unit']}")
    for layer, span, calls, self_us in record["env"].get("trace", {}).pop("table", [])[:30]:
        print(f"{record['workload']:12s}   span {layer:20s} {span:44s} "
              f"{calls:10.3f} calls/op {self_us:12.3f} us/op")
    for message in record["wrong"]:
        print(f"WRONG: {message}")
    print("record: " + json.dumps({k: record[k] for k in ("workload", "correct", "env")}))


def _run_each_in_a_child(names: list[str], args: argparse.Namespace) -> int:
    """All workloads: one child process each, output passed through, so a
    workload's numbers (peak RSS, installed wrappers) never depend on which
    workloads ran before it.  The last line combines the children's."""
    finals = {}
    for name in names:
        command = [sys.executable, "-m", "benchmarks.e2e", "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace), *(["--smoke"] if args.smoke else [])]
        with subprocess.Popen(command, cwd=_REPO, stdout=subprocess.PIPE, text=True) as child:
            assert child.stdout is not None
            last = ""
            try:
                for line in child.stdout:
                    sys.stdout.write(last)
                    sys.stdout.flush()
                    last = line
            except BaseException:  # this process was told to stop
                child.terminate()
                raise
        try:
            finals[name] = json.loads(last)
        except ValueError:  # the child printed no result; its stderr says why
            sys.stdout.write(last)
            return child.returncode or 1
    final = {
        "correct": all(f["correct"] for f in finals.values()),
        "attempted": sum(f["attempted"] for f in finals.values()),
        "failed": sum(f["failed"] for f in finals.values()),
        "metrics": {f"{name}.{k}": v for name, f in finals.items() for k, v in f["metrics"].items()},
    }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


def main(argv: list[str]) -> int:
    args = _parse(argv)
    sys.path[:0] = [str(_REPO / "src"), str(_REPO)]
    # A terminated harness must still stop its server child and remove its
    # data root: turn SIGTERM into an exception so the clean-up paths run.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    from .harness import BenchmarkError, pin_to_one_cpu
    from .workloads import WORKLOADS

    if args.workload is not None and args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.aa:
        from .aa import run_aa

        return run_aa(args.aa, args.seed)
    if args.workload is None:
        return _run_each_in_a_child(list(WORKLOADS), args)
    try:
        cpu = pin_to_one_cpu()
    except BenchmarkError as error:
        print(f"benchmarks.e2e: {error}", file=sys.stderr)
        return 3
    env = {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED"),
    }

    try:
        record = run_workload(args.workload, args, env)
    except BenchmarkError as error:
        print(f"benchmarks.e2e: {args.workload}: {error}", file=sys.stderr)
        return 1
    _print_record(record)
    final = {k: record[k] for k in ("correct", "attempted", "failed", "metrics")}
    sys.stdout.flush()
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    _reexec_with_fixed_hash_seed()
    sys.exit(main(sys.argv[1:]))
