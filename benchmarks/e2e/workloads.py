"""The four workloads.  Sizes are pure functions of ``Context.seconds``.

Each ``run_*`` takes a :class:`Context` and returns a
:class:`~benchmarks.e2e.harness.Outcome`: slices for the timing
estimators, attempted/failed counts, wrong answers, and the
workload-level numbers (set-up times, peak RSS, bytes) under ``extra``.
Checking happens in the same run but outside the timed slices.
"""

from __future__ import annotations

import json
import random
import signal
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro import BENCH_CONFIG, BBox, WBox, WBoxO
from repro.core import BatchExecutor, BatchOp, BatchRef
from repro.errors import ReproError
from repro.net import protocol as proto
from repro.net.client import NetClient
from repro.persist import save_scheme
from repro.xml.xmark import xmark_document

from . import tapes, tracing
from .harness import (
    REF_NOMINAL_MS,
    WAIT_SECONDS,
    BenchmarkError,
    Outcome,
    Proc,
    Server,
    Slice,
    begin,
    closed_slice,
    collect,
    host_ref_ms,
    setup_server,
    tree_bytes,
)

#: Labels bulk-loaded into the served store (all shards together).
LABELS = 200_000

#: Golden mean counted block I/O per element insert of the XMark build
#: (``run_xmark_build(scheme, items, prime_fraction=0, seed=1)``), by
#: item count, for W-BOX / W-BOX-O / B-BOX / B-BOX-O.  Counted I/O is the
#: paper's cost model and must stay identical under every perf change.
XMARK_GOLDEN_IO = {
    20: (5.939232409381663, 11.700426439232409, 4.230277185501066, 5.938166311300639),  # smoke
    80: (6.160752688172043, 14.84005376344086, 4.253494623655914, 6.155645161290322),  # traced
    400: (8.342684600603897, 16.45242931649739, 4.2889376887180894, 7.392204227285204),  # full
}


@dataclass
class Context:
    seed: int
    #: Length of the measured phase this run is sized for.
    seconds: float
    #: How many times set-up is repeated (median reported).
    repeats: int
    #: Fresh directory for this run's data roots.
    parent: Path
    #: Client-side span recorder; set only for the traced phase.
    recorder: tracing.Recorder | None = None

    def __post_init__(self) -> None:
        self.parent.mkdir(parents=True, exist_ok=True)

    @property
    def traced(self) -> bool:
        return self.recorder is not None

    def slices(self, per_second: int) -> int:
        """Slices in the measured phase: an even count (one of each kind
        at least).  Slices are short — 0.1 to 0.25 s — so that the host
        reference sampled at both ends describes the host during them."""
        return max(2, 2 * round(self.seconds * per_second / 2))


# ----------------------------------------------------------------------
# shared by the three socket workloads
# ----------------------------------------------------------------------


def _serve(ctx: Context, shards: int, after_start: Any = None) -> tuple[Server, list[float]]:
    trace_out = ctx.parent / "server-trace.json" if ctx.traced else None
    return setup_server(ctx.parent, shards, LABELS, ctx.repeats, after_start, trace_out)


def _fence(ctx: Context, server: Server, client: NetClient) -> None:
    """Traced runs: have the server snapshot its counters now.  The ping
    is the fence — the loop handles the signal before or while serving it."""
    if ctx.traced:
        server.signal(signal.SIGUSR1)
        client.ping(timeout=WAIT_SECONDS)


def _load_trace(path: Path) -> dict[str, Any]:
    deadline = time.monotonic() + WAIT_SECONDS
    while not path.exists():
        if time.monotonic() > deadline:
            raise BenchmarkError(f"traced server never wrote {path}")
        time.sleep(0.01)
    with open(path, encoding="utf-8") as handle:
        trace = json.load(handle)
    path.unlink()
    return trace


def _finish(ctx: Context, server: Server, live_labels: int, outcome: Outcome) -> None:
    """Clean shutdown (SIGTERM → checkpoint), then what is left on disk."""
    outcome.extra["shutdown_checkpoint_ms"] = server.stop() * 1e3
    outcome.extra["disk_bytes_per_label"] = tree_bytes(server.root) / live_labels
    if ctx.traced:
        assert server.trace_out is not None
        outcome.extra.setdefault("traces", []).append(_load_trace(server.trace_out))


def _warm(client: NetClient, frames: list[tuple], model: tapes.OrderModel, outcome: Outcome) -> None:
    """Untimed: touch every hot LID on this connection's session."""
    replies: list[tuple] = []
    pending = [(frame, begin(client, frame)) for frame in frames[:16]]
    for frame in frames[16:]:
        head, waiting = pending.pop(0)
        replies.append((head, collect(waiting, head)))
        pending.append((frame, begin(client, frame)))
    replies.extend((frame, collect(waiting, frame)) for frame, waiting in pending)
    _check_replies(model, replies, outcome)


def _check_replies(model: tapes.OrderModel, replies: list[tuple], outcome: Outcome) -> None:
    for request, reply in replies:
        if request[0] == "lookup":
            good = tapes.check_lookup(model, request[1], reply.values)
        elif request[0] == "compare":
            good = tapes.check_compare(model, request[1], reply.orders)
        else:
            continue
        if not good:
            outcome.fail(f"wrong {request[0]} reply for {request[1]}: {reply}")


def _order_check(
    client: NetClient, model: tapes.OrderModel, rng: random.Random, outcome: Outcome
) -> None:
    """After the run: the server agrees with the harness's order model on
    2000 sampled pairs, and every label the tape left alive resolves."""
    client.refresh(timeout=WAIT_SECONDS)
    inserted = model.live_inserted()
    pairs = tapes.sample_pairs(rng, range(LABELS), inserted, 2000)
    for start in range(0, len(pairs), 50):
        chunk = pairs[start:start + 50]
        try:
            orders = client.compare(chunk, timeout=WAIT_SECONDS)
        except ReproError as error:
            outcome.fail(f"post-run compare failed: {error!r}")
            continue
        if not tapes.check_compare(model, chunk, orders):
            outcome.fail(f"server and order model disagree on {chunk[:3]}...")
    for start in range(0, len(inserted), 64):
        chunk = inserted[start:start + 64]
        try:
            labels = client.lookup(chunk, timeout=WAIT_SECONDS)
        except ReproError as error:
            outcome.fail(f"acked LIDs do not resolve: {error!r}")
            continue
        if not tapes.check_lookup(model, chunk, labels):
            outcome.fail(f"acked LIDs out of order near {chunk[:3]}")


# ----------------------------------------------------------------------
# read_point
# ----------------------------------------------------------------------

READ_FRAMES_PER_SLICE = 300
READ_SLICES_PER_SECOND = 8


def run_read_point(ctx: Context) -> Outcome:
    """Closed loop, one connection, 1 shard: 3 of 4 frames are a
    ``Lookup`` of 3 hot + 1 cold LID, every 4th a ``Compare`` of 4 hot
    pairs; slices alternate pipeline depth 1 (latency) and 16
    (throughput)."""
    outcome = Outcome()
    rng = random.Random(ctx.seed)
    tape = tapes.ReadTape(rng, LABELS)
    model = tapes.OrderModel(1)
    slices = ctx.slices(READ_SLICES_PER_SECOND)
    total = slices * READ_FRAMES_PER_SLICE
    frames = [tape.compare() if i % 4 == 3 else tape.lookup() for i in range(total)]

    server, setups = _serve(ctx, shards=1)
    outcome.extra["setup_times"] = setups
    try:
        proc = Proc(server.pid)
        with NetClient("127.0.0.1", server.port) as client:
            _warm(client, tape.warmup_frames(), model, outcome)
            _fence(ctx, server, client)
            for number in range(slices):
                kind, depth = ("latency", 1) if number % 2 == 0 else ("throughput", 16)
                item, replies = closed_slice(
                    [client], proc, kind, READ_FRAMES_PER_SLICE, depth,
                    lambda index: (0, frames[index]), outcome,
                    first_index=number * READ_FRAMES_PER_SLICE,
                )
                outcome.slices.append(item)
                _check_replies(model, replies, outcome)
            _fence(ctx, server, client)
        outcome.extra["peak_rss_mb"] = proc.peak_rss_mb()
    except BaseException:
        server.kill()
        raise
    _finish(ctx, server, LABELS, outcome)
    return outcome


# ----------------------------------------------------------------------
# write_small
# ----------------------------------------------------------------------

WRITE_SUBMITS_PER_SLICE = 32
WRITE_SLICES_PER_SECOND = 6
WRITE_WARMUP_SUBMITS = 2 * tapes.DELETE_LAG


class _WriteTape:
    """Small submits at seeded base anchors; tracks acks for the deletes
    and folds them into the order model."""

    def __init__(self, rng: random.Random, total: int, model: tapes.OrderModel) -> None:
        self.anchors = [rng.randrange(LABELS) for _ in range(total)]
        self.elements: list[tuple[int, int] | None] = [None] * total
        self.model = model
        self.live_labels = LABELS

    def request(self, index: int) -> tuple:
        lag = index - tapes.DELETE_LAG
        victim = self.elements[lag] if lag >= 0 else None
        return 0, ("submit", tapes.write_ops(self.anchors[index], victim))

    def ack(self, index: int, request: tuple, reply: Any) -> None:
        ops, results = request[1], reply.values
        self.elements[index] = tuple(results[0])
        self.model.apply(ops, results)
        self.live_labels += 3 - (2 if len(ops) == 3 else 0)


def run_write_small(ctx: Context) -> Outcome:
    """Closed loop, one connection, 1 shard: small ``Submit`` frames,
    slices alternating depth 1 (latency; one commit per submit, so bytes
    per op are exact) and depth 8 (throughput; lets group commit form).
    Then SIGKILL, restart on the same root, check, SIGTERM."""
    outcome = Outcome()
    rng = random.Random(ctx.seed)
    model = tapes.OrderModel(1)
    slices = ctx.slices(WRITE_SLICES_PER_SECOND)
    measured = slices * WRITE_SUBMITS_PER_SLICE
    tape = _WriteTape(rng, WRITE_WARMUP_SUBMITS + measured, model)

    server, setups = _serve(ctx, shards=1)
    outcome.extra["setup_times"] = setups
    try:
        proc = Proc(server.pid)
        with NetClient("127.0.0.1", server.port) as client:
            closed_slice([client], proc, "warmup", WRITE_WARMUP_SUBMITS, 1,
                         tape.request, outcome, on_reply=tape.ack)
            outcome.attempted = 0  # warm-up submits are sent, not measured
            outcome.latencies.clear()
            _fence(ctx, server, client)
            for number in range(slices):
                kind, depth = ("latency", 1) if number % 2 == 0 else ("throughput", 8)
                item, _replies = closed_slice(
                    [client], proc, kind, WRITE_SUBMITS_PER_SLICE, depth,
                    tape.request, outcome, on_reply=tape.ack,
                    first_index=WRITE_WARMUP_SUBMITS + number * WRITE_SUBMITS_PER_SLICE,
                )
                outcome.slices.append(item)
            _fence(ctx, server, client)
        outcome.extra["peak_rss_mb"] = proc.peak_rss_mb()
        if ctx.traced:  # the spans must be out before the crash
            assert server.trace_out is not None
            server.signal(signal.SIGUSR2)
            outcome.extra["traces"] = [_load_trace(server.trace_out)]
        # Crash, recover, and check the recovered store against the model.
        server.kill()
        outcome.extra["recover_ms"] = server.start() * 1e3
        with NetClient("127.0.0.1", server.port) as client:
            _order_check(client, model, rng, outcome)
    except BaseException:
        server.kill()
        raise
    _finish(ctx, server, tape.live_labels, outcome)
    return outcome


# ----------------------------------------------------------------------
# mixed_closed
# ----------------------------------------------------------------------

MIXED_REQUESTS_PER_SLICE = 100
MIXED_SLICES_PER_SECOND = 6
MIXED_WARMUP_REQUESTS = 500

#: The query catalog: 10 parents x 19 children = 200 elements.  (The issue
#: asked for 2000; a view rebuild over 2000 elements costs 100-250 ms at
#: the parent commit and would be most of the workload.  At 200 elements a
#: rebuild is 10-25 ms.)
CATALOG_PARENTS = 10
CATALOG_CHILDREN = 19

#: Op mix per 50 requests: 78% Lookup, 8% Compare, 10% Submit, 2% Query, 2% Refresh.
_MIX = (("lookup", 39), ("compare", 4), ("submit", 5), ("query", 1), ("refresh", 1))


def _seed_catalog(server: Server, seed: int) -> list[tuple[tuple[int, int], list[tuple[int, int]]]]:
    """Write the query catalog through the server (it only knows elements
    it saw inserted): each parent in front of a seeded base anchor, its
    children appended inside it in one submit.  Returns the harness's own
    list: ``(parent, children in document order)``."""
    rng = random.Random(seed ^ 0x5EED)
    catalog = []
    with NetClient("127.0.0.1", server.port) as client:
        for anchor in rng.sample(range(LABELS), CATALOG_PARENTS):
            ops = [BatchOp("insert_element_before", (anchor,))]
            ops += [BatchOp("insert_element_before", (BatchRef(0, 1),))] * CATALOG_CHILDREN
            results = client.submit(ops, timeout=WAIT_SECONDS)
            catalog.append((tuple(results[0]), [tuple(pair) for pair in results[1:]]))
    return catalog


def _mixed_tape(rng: random.Random, tape: tapes.ReadTape, catalog: list, total: int) -> list[tuple]:
    """``(connection, request)`` for the whole run, from the seed.  Kinds
    are a shuffle of the exact 39/4/5/1/1 multiset per 50 requests, so
    every slice and every seed does the same amount of each kind of work;
    seeds differ in order, LIDs and anchors.  Requests alternate between
    the two connections, except that every submit goes to connection 0
    (commit order is then send order, which the order model relies on)."""
    kinds: list[str] = []
    while len(kinds) < total:
        block = [kind for kind, count in _MIX for _ in range(count)]
        rng.shuffle(block)
        kinds.extend(block)
    requests = []
    for index, kind in enumerate(kinds[:total]):
        connection = index % 2
        if kind == "lookup":
            request = tape.lookup()
        elif kind == "compare":
            request = tape.compare()
        elif kind == "submit":
            # Plain label inserts only — README "Findings": element deletes
            # make cached sessions serve stale labels, and element inserts
            # without deletes would grow the server's query catalog (and
            # every view rebuild) through the run.
            connection = 0
            request = ("submit", [BatchOp("insert_before", (rng.randrange(LABELS),))] * 2)
        elif kind == "query":
            parent = catalog[rng.randrange(CATALOG_PARENTS)][0]
            request = ("query", proto.AXIS_DESCENDANTS, parent[0], parent[1])
        else:
            request = ("refresh",)
        requests.append((connection, request))
    return requests


def run_mixed_closed(ctx: Context) -> Outcome:
    """Closed loop over two connections and 2 shards: reads beside writes,
    queries and refreshes; slices alternate 2 requests in flight (one per
    connection: latency) and 8 (throughput)."""
    outcome = Outcome()
    rng = random.Random(ctx.seed)
    tape = tapes.ReadTape(rng, LABELS)
    model = tapes.OrderModel(2)
    slices = ctx.slices(MIXED_SLICES_PER_SECOND)
    total = MIXED_WARMUP_REQUESTS + slices * MIXED_REQUESTS_PER_SLICE

    catalogs: list[list] = []
    server, setups = _serve(
        ctx, shards=2, after_start=lambda srv: catalogs.append(_seed_catalog(srv, ctx.seed))
    )
    outcome.extra["setup_times"] = setups
    children = dict(catalogs[-1])
    requests = _mixed_tape(rng, tape, catalogs[-1], total)
    queries = pairs = 0

    def check(replies: list[tuple], measured: bool) -> None:
        nonlocal queries, pairs
        for request, reply in replies:
            if request[0] == "submit":
                model.apply(request[1], reply.values)
            elif request[0] == "query":
                elements = [tuple(pair) for chunk in reply for pair in chunk.elements]
                if elements != children[(request[2], request[3])]:
                    outcome.fail(f"query stream for {request[2:]} is not the element list")
                queries += measured
                pairs += measured * len(elements)
        _check_replies(model, replies, outcome)

    try:
        proc = Proc(server.pid)
        # Two connections read concurrently here, and the file backend's
        # page reads share one file handle without a lock (README,
        # Findings): two first-touch reads of undecoded pages can swap
        # pages.  So a throw-away connection first touches every 25th LID
        # alone (odd stride: both shards), which decodes every LIDF block
        # and leaf into the buffer pool; measured cold reads are then
        # session-cold, not page-cold (read_point keeps the page-cold
        # path, on a single connection).
        with NetClient("127.0.0.1", server.port) as loader:
            every = list(range(0, LABELS, 25))
            _warm(loader, [("lookup", tuple(every[i:i + 64])) for i in range(0, len(every), 64)],
                  model, outcome)
        clients = [NetClient("127.0.0.1", server.port) for _ in range(2)]
        try:
            for client in clients:
                _warm(client, tape.warmup_frames(), model, outcome)
            _item, replies = closed_slice(clients, proc, "warmup", MIXED_WARMUP_REQUESTS, 2,
                                          requests.__getitem__, outcome)
            check(replies, measured=False)
            outcome.attempted = 0
            outcome.latencies.clear()
            _fence(ctx, server, clients[0])
            for number in range(slices):
                kind, depth = ("latency", 2) if number % 2 == 0 else ("throughput", 8)
                item, replies = closed_slice(
                    clients, proc, kind, MIXED_REQUESTS_PER_SLICE, depth,
                    requests.__getitem__, outcome,
                    first_index=MIXED_WARMUP_REQUESTS + number * MIXED_REQUESTS_PER_SLICE,
                )
                outcome.slices.append(item)
                check(replies, measured=True)
            _fence(ctx, server, clients[0])
            outcome.extra["peak_rss_mb"] = proc.peak_rss_mb()
            outcome.extra.update(queries=queries, query_pairs=pairs)
            _order_check(clients[1], model, rng, outcome)
        finally:
            for client in clients:
                client.close()
    except BaseException:
        server.kill()
        raise
    catalog_labels = 2 * CATALOG_PARENTS * (1 + CATALOG_CHILDREN)
    _finish(ctx, server, LABELS + catalog_labels + len(model.live_inserted()), outcome)
    return outcome


# ----------------------------------------------------------------------
# embed_xmark
# ----------------------------------------------------------------------

EMBED_SLICE_OPS = 1000
EMBED_BATCH = 64
EMBED_BATCHES_PER_SLICE = 16

_SCHEMES = (
    ("W-BOX", lambda: WBox(BENCH_CONFIG)),
    ("W-BOX-O", lambda: WBoxO(BENCH_CONFIG)),
    ("B-BOX", lambda: BBox(BENCH_CONFIG)),
    ("B-BOX-O", lambda: BBox(BENCH_CONFIG, ordinal=True)),
)


def _embed_setup(items: int, seed: int, read_slices: int) -> tuple[list, list, list]:
    """Everything the measured phase needs, built from scratch: the
    document, the four empty structures, and the seeded read tape — per
    batch, 64 picks of ``(element index, 0 = start tag | 1 = end tag |
    2 = both tags as a lookup_pair)``."""
    document = xmark_document(items, seed=1)  # fixed: the goldens depend on it
    elements = list(document.iter())
    schemes = [(name, make()) for name, make in _SCHEMES]
    rng = random.Random(seed)
    picks = [
        [(rng.randrange(1, len(elements)), rng.randrange(3)) for _ in range(EMBED_BATCH)]
        for _ in range(read_slices * EMBED_BATCHES_PER_SLICE)
    ]
    return elements, schemes, picks


def run_embed_xmark(ctx: Context) -> Outcome:
    """In-process, single thread, memory backend: the paper's Figure 8
    XMark build element by element on all four BOX variants, then seeded
    reads through ``BatchExecutor``, then one ``save_scheme`` each."""
    outcome = Outcome()
    items = max(20, round(25 * ctx.seconds))
    read_slices = max(1, round(1.25 * ctx.seconds))
    setups = []
    # One set-up is ~45 ms here against ~1 s for a served root, so it is
    # repeated five times as often for a median as steady as theirs.
    for _ in range(5 * ctx.repeats):
        ref_before = host_ref_ms()
        started = time.monotonic()
        elements, schemes, picks = _embed_setup(items, ctx.seed, read_slices)
        elapsed = time.monotonic() - started
        setups.append(elapsed * 2 * REF_NOMINAL_MS / (ref_before + host_ref_ms()))
    outcome.extra["setup_times"] = setups

    proc = Proc()
    inserts = len(elements) - 1
    wchar0 = proc.wchar()
    io_means = []
    ref_before = host_ref_ms()
    for name, scheme in schemes:
        # -- build: one insert_element_before per element, document order
        end_lids = {elements[0]: scheme.bulk_load(2, [1, 0])[1]}
        pairs: list[tuple[int, int]] = [(0, 0)]  # by element index; the root is never picked
        store = scheme.store
        io_total = 0
        for first in range(1, len(elements), EMBED_SLICE_OPS):
            chunk = elements[first:first + EMBED_SLICE_OPS]
            latencies = []
            cpu0, t0_ns = time.process_time_ns(), time.monotonic_ns()
            for element in chunk:
                started = time.perf_counter()
                with store.measured() as cost:
                    pair = scheme.insert_element_before(end_lids[element.parent])
                latencies.append(time.perf_counter() - started)
                end_lids[element] = pair[1]
                pairs.append(pair)
                io_total += cost.total
            t1_ns, cpu1 = time.monotonic_ns(), time.process_time_ns()
            ref_after = host_ref_ms()
            if len(chunk) == EMBED_SLICE_OPS:  # a short tail slice is run, not timed
                outcome.slices.append(
                    Slice("both", len(chunk), (t1_ns - t0_ns) / 1e9, latencies, cpu1 - cpu0,
                          0, t0_ns, t1_ns, (ref_before + ref_after) / 2, f"{name}/build")
                )
            ref_before = ref_after
        io_means.append(io_total / inserts)
        outcome.attempted += inserts

        # -- reads: seeded lookups and pair lookups in batches of 64
        executor = BatchExecutor(scheme, group_size=EMBED_BATCH)
        batches = [
            [
                BatchOp("lookup_pair", pairs[index]) if which == 2
                else BatchOp("lookup", (pairs[index][which],))
                for index, which in batch
            ]
            for batch in picks
        ]
        for first in range(0, len(batches), EMBED_BATCHES_PER_SLICE):
            latencies = []
            cpu0, t0_ns = time.process_time_ns(), time.monotonic_ns()
            for ops in batches[first:first + EMBED_BATCHES_PER_SLICE]:
                started = time.perf_counter()
                result = executor.execute(ops)
                latencies.append((time.perf_counter() - started) / len(ops))
                if None in result.results:
                    outcome.fail(f"{name}: a batched lookup returned no label")
            t1_ns, cpu1 = time.monotonic_ns(), time.process_time_ns()
            ref_after = host_ref_ms()
            ops_done = EMBED_BATCHES_PER_SLICE * len(batches[first])
            outcome.slices.append(
                Slice("both", ops_done, (t1_ns - t0_ns) / 1e9, latencies, cpu1 - cpu0,
                      0, t0_ns, t1_ns, (ref_before + ref_after) / 2, f"{name}/read")
            )
            ref_before = ref_after
            outcome.attempted += ops_done

    # -- persist + check, outside the slices but inside the byte window
    disk = 0
    labels = 0
    save_started = time.monotonic()
    for name, scheme in schemes:
        path = ctx.parent / f"{name}.box"
        save_scheme(scheme, str(path))
        disk += path.stat().st_size
        labels += scheme.label_count()
    outcome.extra["save_ms"] = (time.monotonic() - save_started) * 1e3
    written = proc.wchar() - wchar0
    for name, scheme in schemes:
        try:
            scheme.check_invariants()
        except Exception as error:  # noqa: BLE001 — any invariant failure is a wrong answer
            outcome.fail(f"{name}: check_invariants failed: {error!r}")
    golden = XMARK_GOLDEN_IO.get(items)
    if golden is None:
        outcome.extra["golden_io"] = "none recorded for this size"
    elif tuple(io_means) != golden:
        outcome.fail(f"counted I/O per insert {io_means} != golden {golden}")
    outcome.extra.update(
        io_per_insert=dict(zip((n for n, _ in schemes), io_means)),
        items=items,
        peak_rss_mb=proc.peak_rss_mb(),
        write_bytes=written,
        disk_bytes_per_label=disk / labels,
        counted_io=(
            sum(s.stats.reads for _n, s in schemes), sum(s.stats.writes for _n, s in schemes)
        ),
    )
    return outcome


WORKLOADS = {
    "read_point": (
        run_read_point,
        "closed-loop Lookup/Compare frames on one connection: net.* and the "
        "session cache do the work, storage a fixed quarter of LIDs, WAL and persist none",
    ),
    "write_small": (
        run_write_small,
        "closed-loop 3-op Submit frames with fsync on, then SIGKILL and recovery: "
        "persist, storage.filebackend and storage.wal dominate (O(structure) commit metadata)",
    ),
    "mixed_closed": (
        run_mixed_closed,
        "closed loop over 2 connections and 2 shards, reads beside writes, queries and "
        "refreshes: shows a write-path change that slows reads; only path through ShardRouter",
    ),
    "embed_xmark": (
        run_embed_xmark,
        "in-process Figure 8 XMark build + batched reads on all four BOX variants: core.* and "
        "blockstore only, so network and commit-path changes must leave it unchanged",
    ),
}
