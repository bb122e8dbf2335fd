"""Per-layer metrics: names, units, and how each is read off a traced run.

:data:`PER_LAYER` is the single list of per-layer metric names (it is what
``BENCHMARK.json`` repeats); :func:`layer_metrics` fills every one of them
for one traced workload run, 0 where a layer is not on the workload's path.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Any

from . import tracing
from .harness import Outcome, exact_slices, median_of, percentile, timing_metrics

#: (name, unit, better) of every per-layer metric, in report order.
PER_LAYER: list[tuple[str, str, str]] = []
for _layer in tracing.LAYERS:
    PER_LAYER.append((f"{_layer}.self_us_per_op", "us", "lower"))
    PER_LAYER.append((f"{_layer}.calls_per_op", "count", "lower"))
PER_LAYER += [
    ("net.server.handoff_us", "us", "lower"),
    ("net.client.p99_ms", "ms", "lower"),
    ("net.client.p999_ms", "ms", "lower"),
    ("service.queue_wait_us", "us", "lower"),
    ("service.group_ops", "count", "higher"),
    ("service.fallthrough_frac", "frac", "lower"),
    ("storage.blockstore.reads_per_op", "count", "lower"),
    ("storage.blockstore.writes_per_op", "count", "lower"),
    ("storage.wal.bytes_per_commit", "B", "lower"),
    ("storage.wal.fsyncs_per_commit", "count", "lower"),
    ("storage.filebackend.pages_per_commit", "count", "lower"),
    ("persist.metadata_bytes_per_commit", "B", "lower"),
    ("persist.recover_ms", "ms", "lower"),
    ("persist.shutdown_checkpoint_ms", "ms", "lower"),
    ("query.streams.view_builds_per_query", "count", "lower"),
    ("query.streams.pairs_per_query", "count", "higher"),
    ("trace.overhead_frac", "frac", "lower"),
    ("trace.unattributed_frac", "frac", "lower"),
    ("host.ref_ms", "ms", "lower"),
    ("host.ref_min_ms", "ms", "lower"),
]


def _windows(outcome: Outcome) -> tuple[list[tuple[int, int]], int, float]:
    """The slices spans are attributed over, their op count, and the
    request time in them.  Socket workloads use the latency slices: one
    request is in flight per connection there, so a request's time is
    simply what the spans of both processes cover plus what they do not.
    The embedded run uses every slice.
    """
    chosen = exact_slices(outcome.slices)
    windows = [(item.t0_ns, item.t1_ns) for item in chosen]
    ops = sum(item.ops for item in chosen)
    # embed_xmark slices are grouped; their batch latencies are per op, so
    # the time to account for is the slices' wall time.
    request_s = sum(item.wall if item.group else sum(item.latencies) for item in chosen)
    return windows, ops, request_s


def _server_gaps(server: list[tracing.Span]) -> list[float]:
    """Per request, the server-side time between protocol spans and the
    work done for the request: ``decode_payload`` end → response
    ``encode_frame`` start, minus the top-level spans the executor
    threads ran in between.  This is asyncio task scheduling, the
    per-connection lock, the executor hand-off both ways, frame dispatch
    and reply construction — ``net/server.py`` seen from outside."""
    decoded: dict[Any, list[int]] = {}
    for span in server:
        if span.name.endswith("protocol.decode_payload"):
            decoded.setdefault(span.value, []).append(span.t1)
    requests: list[tuple[int, int]] = []
    for span in sorted(
        (s for s in server if s.name.endswith("server.encode_frame")), key=lambda s: s.t0
    ):
        waiting = decoded.get(span.value)
        # A stream's later chunks share the request id: only the first
        # encode after a decode closes a request.
        if waiting and waiting[0] <= span.t0:
            requests.append((waiting.pop(0), span.t0))
    requests.sort()
    starts = [lo for lo, _hi in requests]
    work = [0] * len(requests)
    for span in server:
        if span.top and "net-worker" in span.thread:
            slot = bisect_right(starts, span.t0) - 1
            while slot >= 0 and requests[slot][1] < span.t1:
                slot -= 1
            if slot >= 0:
                work[slot] += span.t1 - span.t0
    return [(hi - lo - done) / 1e3 for (lo, hi), done in zip(requests, work)]


def _queue_waits(server: list[tracing.Span]) -> list[float]:
    """``submit_ops`` return → the writer's ``BatchExecutor.execute``
    start, by time adjacency (exact with one submit in flight)."""
    submitted = sorted(s.t1 for s in server if s.name == "ShardedLabelService.submit_ops")
    waits = []
    for span in server:
        if span.name == "BatchExecutor.execute":
            slot = bisect_right(submitted, span.t0) - 1
            if slot >= 0:
                waits.append((span.t0 - submitted[slot]) / 1e3)
    return waits


def _wal_bytes(all_server: list[tracing.Span], windows: list[tuple[int, int]]) -> tuple[int, int, int]:
    """(WAL bytes, page-image bytes, pages) of the transactions appended
    inside the windows.  Each span carries its writer's cumulative byte
    counter; a transaction's size is the step from the previous one."""
    by_writer: dict[Any, list[tracing.Span]] = {}
    for span in all_server:
        if span.name == "WALWriter.append_transaction" and span.value:
            by_writer.setdefault(span.value[0], []).append(span)
    total = images = pages = 0
    for spans in by_writer.values():
        spans.sort(key=lambda s: s.t0)
        previous = None
        for span in spans:
            _writer, cumulative, image_bytes, page_count = span.value
            if previous is not None and tracing.in_windows([span], windows):
                total += cumulative - previous
                images += image_bytes
                pages += page_count
            previous = cumulative
    return total, images, pages


def _counter_delta(traces: list[dict[str, Any]]) -> dict[str, float]:
    """Counted I/O and read-path counters between the two snapshots the
    harness requested around the measured phase."""
    for trace in traces:
        shots = trace.get("snapshots") or []
        if len(shots) >= 2:
            first, last = shots[0], shots[-1]
            out = {"reads": last["reads"] - first["reads"], "writes": last["writes"] - first["writes"]}
            for key, shot in (("0", first), ("1", last)):
                shards = (shot.get("describe") or {}).get("shards", [])
                out[f"service_reads{key}"] = sum(s.get("reads", 0) for s in shards)
                out[f"fallthrough{key}"] = sum(s.get("fallthrough_reads", 0) for s in shards)
            return out
    return {}


def span_table(spans: list[tracing.Span], ops: int) -> list[tuple[str, str, float, float]]:
    """``(layer, span name, calls per op, self us per op)``, largest self
    time first — the per-layer numbers one level down."""
    rows: dict[tuple[str, str], list[float]] = {}
    for span in spans:
        row = rows.setdefault((span.layer, span.name), [0, 0])
        row[0] += 1
        if span.kind != tracing.WAIT:
            row[1] += span.self_ns
    table = [(layer, name, calls / ops, ns / 1e3 / ops) for (layer, name), (calls, ns) in rows.items()]
    return sorted(table, key=lambda row: -row[3])


def layer_metrics(
    outcome: Outcome,
    traces: list[dict[str, Any]],
    plain_ops_s: float,
    counted_io: tuple[int, int] | None = None,
) -> tuple[dict[str, float], list[tuple[str, str, float, float]]]:
    """Every :data:`PER_LAYER` metric for one traced run, and the span table.

    ``traces`` are the exported recorders of every process involved (the
    harness's own, plus the server's); ``plain_ops_s`` is the untraced
    ``ops_s`` of the same run length, for ``trace.overhead_frac``;
    ``counted_io`` supplies (reads, writes) when the structure lives in
    the harness process (no server snapshots)."""
    windows, ops, request_s = _windows(outcome)
    everything = tracing.load_spans(traces)
    server_pids = {str(t["pid"]) for t in traces if t.get("role") == "server"}
    spans = tracing.in_windows(everything, windows)
    server = [s for s in spans if s.thread.split(":")[0] in server_pids]
    all_server = [s for s in everything if s.thread.split(":")[0] in server_pids]

    metrics = {name: 0.0 for name, _unit, _better in PER_LAYER}
    totals = tracing.layer_totals(spans)
    gaps = _server_gaps(server)
    totals["net.server"] = (int(sum(gaps) * 1e3), len(gaps))
    attributed_ns = 0
    for layer, (self_ns, calls) in totals.items():
        metrics[f"{layer}.self_us_per_op"] = self_ns / 1e3 / ops
        metrics[f"{layer}.calls_per_op"] = calls / ops
        attributed_ns += self_ns
    metrics["trace.unattributed_frac"] = max(0.0, 1.0 - attributed_ns / 1e9 / request_s)
    traced_ops_s = timing_metrics(outcome.slices)["ops_s"]
    metrics["trace.overhead_frac"] = 1.0 - traced_ops_s / plain_ops_s if plain_ops_s else 0.0

    metrics["net.server.handoff_us"] = median_of(gaps)
    if server_pids:
        metrics["net.client.p99_ms"] = percentile(outcome.latencies, 0.99) * 1e3
        metrics["net.client.p999_ms"] = percentile(outcome.latencies, 0.999) * 1e3

    commits = sum(1 for s in server if s.name == "FileBackend.commit")
    executes = [s for s in server if s.name == "BatchExecutor.execute"]
    metrics["service.queue_wait_us"] = median_of(_queue_waits(server))
    if commits:
        wal, images, pages = _wal_bytes(all_server, windows)
        metrics["service.group_ops"] = sum(s.value or 0 for s in executes) / commits
        metrics["storage.wal.bytes_per_commit"] = wal / commits
        metrics["storage.wal.fsyncs_per_commit"] = sum(1 for s in server if s.name == "os.fsync") / commits
        metrics["storage.filebackend.pages_per_commit"] = pages / commits
        metrics["persist.metadata_bytes_per_commit"] = (wal - images) / commits

    counters = _counter_delta(traces)
    reads, writes = counted_io or (counters.get("reads", 0), counters.get("writes", 0))
    # Counters span the whole measured phase (every slice), unlike spans.
    phase_ops = sum(item.ops for item in outcome.slices)
    metrics["storage.blockstore.reads_per_op"] = reads / phase_ops
    metrics["storage.blockstore.writes_per_op"] = writes / phase_ops
    service_reads = counters.get("service_reads1", 0) - counters.get("service_reads0", 0)
    if service_reads:
        fell = counters["fallthrough1"] - counters["fallthrough0"]
        metrics["service.fallthrough_frac"] = fell / service_reads

    metrics["persist.recover_ms"] = outcome.extra.get("recover_ms", 0.0)
    metrics["persist.shutdown_checkpoint_ms"] = outcome.extra.get("shutdown_checkpoint_ms", 0.0)
    queries = outcome.extra.get("queries", 0)
    if queries:
        builds = sum(1 for s in server if s.name == "QueryEngine.view" and s.child_ns)
        metrics["query.streams.view_builds_per_query"] = builds / queries
        metrics["query.streams.pairs_per_query"] = outcome.extra.get("query_pairs", 0) / queries
    refs = [item.ref_ms for item in outcome.slices]
    metrics["host.ref_ms"] = median_of(refs)
    metrics["host.ref_min_ms"] = min(refs)
    return metrics, span_table(spans, ops)
