"""Open-loop network latency: Poisson arrivals against the socket server.

The server runs as a real child process (``repro serve --listen``, its own
GIL) over a 2-shard synthetic store; load comes from worker *processes*,
each driving pipelined :class:`~repro.net.client.NetClient` connections
with Poisson arrivals — an **open-loop** generator: each request's send
time is drawn from the arrival process in advance, and a slow response
never delays the next arrival.  Latency is measured from the *scheduled*
arrival to the reader-thread response timestamp, so queueing delay that a
closed-loop (back-to-back) driver would silently absorb — coordinated
omission — is charged to the server.

Rates are calibrated, not hard-coded: a closed-loop pipelined client
measures the server's capacity first, and the table reports three rates
against it — ``low`` (0.25x), ``mid`` (0.75x) and ``overload`` (2.5x).
Past the knee the admission cap sheds with typed ``OVERLOADED`` frames;
the thresholds assert that overload produces shedding and a still-bounded
p99 for the accepted requests, with zero connection resets — graceful
degradation, not latency collapse.

Regression gate: with ``REPRO_BENCH_GATE=1`` the measured p99 at the
``low`` calibrated rate is compared against the committed
``BENCH_net_latency.json`` — more than 15% (plus a 1 ms jitter floor)
above the committed p99 fails the run.  Rates are re-calibrated per
machine, so the comparison tracks the protocol/server code, not the box.
Only fires when the committed scale matches.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import random
import signal
import subprocess
import sys
import threading
import time
from collections import deque

from benchmarks.conftest import RESULTS_DIR, SCALE_NAME, fmt, record_table
from repro.core import BatchOp
from repro.errors import ReproError, ServiceOverloadedError
from repro.net.client import NetClient

N_SHARDS = 2

NET_SCALE = {
    # ``duration`` is seconds of open-loop load per rate; ``base`` is the
    # bulk-loaded store the lookups randomize over.  smoke doubles as the
    # CI load-generator smoke run (a few seconds end to end).
    # ``repeats`` applies to the gated ``low`` point only: open-loop tail
    # latency on a shared box is noisy, so the gate compares best-of-N
    # (a background hiccup can only inflate p99, never deflate it).
    "smoke": dict(base=2_000, duration=1.0, workers=2, conns=1, cal_seconds=0.5,
                  repeats=1),
    "small": dict(base=20_000, duration=3.0, workers=2, conns=2, cal_seconds=1.0,
                  repeats=3),
    "medium": dict(base=50_000, duration=6.0, workers=3, conns=2, cal_seconds=1.5,
                  repeats=3),
}[SCALE_NAME]

#: Rate points as fractions of the calibrated closed-loop capacity.
RATE_POINTS = (("low", 0.25), ("mid", 0.75), ("overload", 2.5))

#: One request in ``SUBMIT_EVERY`` is a write (``insert_before``); the
#: rest are 4-LID batched lookups — the mixed read/write service shape.
SUBMIT_EVERY = 8
LOOKUP_BATCH = 4

#: Arrivals inside the first tenth of each run are warmup and dropped.
WARMUP_FRACTION = 0.10

MAX_INFLIGHT = 64
GATE_TOLERANCE = 1.15  # >15% p99 regression at the low rate fails
#: Absolute scheduler-jitter floor under the 15% band: on a small shared
#: box (CI runners, containers) single-digit-ms p99s swing by timeslice
#: preemption alone, which a relative band cannot absorb.
GATE_FLOOR_MS = 5.0

JUDGE_THRESHOLDS = SCALE_NAME != "smoke"

_memo: dict | None = None


# ---------------------------------------------------------------------------
# server child process
# ---------------------------------------------------------------------------


def _start_server(base: int) -> tuple[subprocess.Popen, int]:
    import repro

    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--listen", "127.0.0.1:0",
            "--scheme", "wbox",
            "--shards", str(N_SHARDS),
            "--base", str(base),
            "--max-inflight", str(MAX_INFLIGHT),
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
    )
    banner: list[str] = []

    def read_banner() -> None:
        assert proc.stdout is not None
        banner.append(proc.stdout.readline())

    reader = threading.Thread(target=read_banner, daemon=True)
    reader.start()
    reader.join(60)
    if reader.is_alive() or not banner or "listening on" not in banner[0]:
        proc.kill()
        stderr = proc.stderr.read() if proc.stderr else ""
        raise AssertionError(f"server did not come up: {banner!r} stderr={stderr}")
    return proc, int(banner[0].rsplit(":", 1)[1])


def _stop_server(proc: subprocess.Popen) -> None:
    proc.send_signal(signal.SIGTERM)
    try:
        proc.wait(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()
        if proc.stdout:
            proc.stdout.close()
        if proc.stderr:
            proc.stderr.close()


# ---------------------------------------------------------------------------
# calibration and workers
# ---------------------------------------------------------------------------


def _request(client: NetClient, rng: random.Random, base: int, index: int):
    """Issue one workload request (non-blocking); the open-loop mix."""
    if index % SUBMIT_EVERY == SUBMIT_EVERY - 1:
        anchor = rng.randrange(base)
        return client.begin_submit([BatchOp("insert_before", (anchor,))])
    lids = [rng.randrange(base) for _ in range(LOOKUP_BATCH)]
    return client.begin_lookup(lids)


def _calibrate(port: int, base: int, seconds: float) -> float:
    """Closed-loop capacity in requests/s: one connection, a pipelined
    window kept full, the same request mix the open-loop phase drives."""
    rng = random.Random(0xC0FFEE)
    window = 32
    with NetClient("127.0.0.1", port) as client:
        client.lookup([rng.randrange(base) for _ in range(LOOKUP_BATCH)])
        index = 0
        outstanding: deque = deque()
        for _ in range(window):
            outstanding.append(_request(client, rng, base, index))
            index += 1
        completed = 0
        start = time.monotonic()
        while time.monotonic() - start < seconds:
            outstanding.popleft().wait(30)
            completed += 1
            outstanding.append(_request(client, rng, base, index))
            index += 1
        while outstanding:
            outstanding.popleft().wait(30)
            completed += 1
        return completed / (time.monotonic() - start)


def _connect(port: int, patience: float = 10.0) -> NetClient:
    """Open one load connection.  The Hello handshake is admitted like any
    other request, so while the previous rate point's backlog drains it can
    be shed (typed OVERLOADED); retry it on the same socket, bounded."""
    client = NetClient("127.0.0.1", port, handshake=False)
    deadline = time.monotonic() + patience
    try:
        while True:
            try:
                client.server_info = client.hello()
                return client
            except ServiceOverloadedError:
                if time.monotonic() >= deadline:
                    raise
                time.sleep(0.02)
    except BaseException:
        client.close()
        raise


def _load_worker(result_queue, worker_index: int, port: int, rate: float,
                 duration: float, seed: int, base: int, conns: int) -> None:
    """One open-loop worker process: Poisson arrivals at ``rate``/s spread
    over ``conns`` pipelined connections.  Never waits for a response to
    send the next request; puts a latency/outcome summary on the queue."""
    rng = random.Random(seed)
    out = {"latencies_ms": [], "shed": 0, "errors": 0, "resets": 0, "sent": 0}
    clients = []
    try:
        for _ in range(conns):
            clients.append(_connect(port))
        issued: list[tuple[float, object]] = []
        start = time.monotonic()
        next_at = 0.0
        index = 0
        while True:
            next_at += rng.expovariate(rate)
            if next_at >= duration:
                break
            now = time.monotonic() - start
            if next_at > now:
                time.sleep(next_at - now)
            scheduled = start + next_at
            try:
                pending = _request(clients[index % conns], rng, base, index)
            except ConnectionError:
                out["resets"] += 1
                index += 1
                continue
            index += 1
            out["sent"] += 1
            if next_at >= duration * WARMUP_FRACTION:
                issued.append((scheduled, pending))
        for scheduled, pending in issued:
            try:
                pending.wait(60)
            except ServiceOverloadedError:
                out["shed"] += 1
                continue
            except ConnectionError:
                out["resets"] += 1
                continue
            except (ReproError, TimeoutError):
                out["errors"] += 1
                continue
            out["latencies_ms"].append((pending.completed_at - scheduled) * 1e3)
    except BaseException as error:  # noqa: BLE001 — surfaced in the parent
        out["fatal"] = repr(error)
    finally:
        for client in clients:
            try:
                client.close()
            except Exception:
                pass
        result_queue.put((worker_index, out))


def _run_rate(port: int, rate: float, duration: float, base: int,
              workers: int, conns: int, seed: int) -> dict:
    # spawn, not fork: the parent holds live client/reader threads.
    ctx = multiprocessing.get_context("spawn")
    queue = ctx.Queue()
    procs = [
        ctx.Process(
            target=_load_worker,
            args=(queue, i, port, rate / workers, duration, seed + i, base, conns),
        )
        for i in range(workers)
    ]
    for proc in procs:
        proc.start()
    results = [queue.get(timeout=duration + 120) for _ in procs]
    for proc in procs:
        proc.join(timeout=60)
    latencies: list[float] = []
    merged = {"shed": 0, "errors": 0, "resets": 0, "sent": 0}
    for _, out in results:
        if "fatal" in out:
            raise AssertionError(f"load worker died: {out['fatal']}")
        latencies.extend(out["latencies_ms"])
        for key in merged:
            merged[key] += out[key]
    latencies.sort()

    def pct(q: float) -> float:
        if not latencies:
            return float("nan")
        return latencies[min(len(latencies) - 1, int(q * len(latencies)))]

    measured = duration * (1.0 - WARMUP_FRACTION)
    return {
        "target_rate": rate,
        "achieved_rate": (len(latencies) + merged["shed"]) / measured,
        "completed": len(latencies),
        "p50_ms": pct(0.50),
        "p99_ms": pct(0.99),
        "p999_ms": pct(0.999),
        **merged,
    }


# ---------------------------------------------------------------------------
# the experiment
# ---------------------------------------------------------------------------


def _results() -> dict:
    global _memo
    if _memo is not None:
        return _memo
    proc, port = _start_server(NET_SCALE["base"])
    try:
        capacity = _calibrate(port, NET_SCALE["base"], NET_SCALE["cal_seconds"])
        rates: dict[str, dict] = {}
        for name, fraction in RATE_POINTS:
            repeats = NET_SCALE["repeats"] if name == "low" else 1
            rates[name] = min(
                (
                    _run_rate(
                        port,
                        rate=capacity * fraction,
                        duration=NET_SCALE["duration"],
                        base=NET_SCALE["base"],
                        workers=NET_SCALE["workers"],
                        conns=NET_SCALE["conns"],
                        seed=(hash(name) & 0xFFFF) + attempt,
                    )
                    for attempt in range(repeats)
                ),
                key=lambda row: row["p99_ms"],
            )
            rates[name]["fraction"] = fraction
    finally:
        _stop_server(proc)
    _memo = {"capacity": capacity, "rates": rates}
    return _memo


def _apply_gate(rates: dict) -> dict:
    """Compare the low-rate p99 against the committed JSON."""
    gate = {"enabled": bool(int(os.environ.get("REPRO_BENCH_GATE", "0") or "0"))}
    baseline_path = RESULTS_DIR / "BENCH_net_latency.json"
    if not gate["enabled"]:
        return gate
    if not baseline_path.exists():
        gate["skipped"] = "no committed BENCH_net_latency.json"
        return gate
    committed = json.loads(baseline_path.read_text())
    if committed.get("scale") != SCALE_NAME:
        gate["skipped"] = (
            f"committed baseline is scale={committed.get('scale')!r}, "
            f"this run is {SCALE_NAME!r}"
        )
        return gate
    committed_p99 = committed.get("extra", {}).get("rates", {}).get("low", {}).get("p99_ms")
    if committed_p99 is None:
        gate["skipped"] = "committed baseline has no low-rate p99"
        return gate
    ceiling = max(committed_p99 * GATE_TOLERANCE, committed_p99 + GATE_FLOOR_MS)
    measured = rates["low"]["p99_ms"]
    gate["checked"] = {
        "committed_p99_ms": committed_p99,
        "measured_p99_ms": measured,
        "ceiling_ms": ceiling,
    }
    gate["failures"] = (
        []
        if measured <= ceiling
        else [
            f"low-rate p99 {measured:.2f}ms > {ceiling:.2f}ms "
            f"(committed {committed_p99:.2f}ms + 15% / +{GATE_FLOOR_MS:.0f}ms floor)"
        ]
    )
    return gate


def test_net_latency_table(benchmark):
    results = _results()
    capacity = results["capacity"]
    rates = results["rates"]
    gate = _apply_gate(rates)

    rows = []
    for name, _ in RATE_POINTS:
        row = rates[name]
        rows.append(
            [
                f"{name} ({row['fraction']}x)",
                fmt(row["target_rate"], 0),
                fmt(row["achieved_rate"], 0),
                fmt(row["p50_ms"]) + "ms",
                fmt(row["p99_ms"]) + "ms",
                fmt(row["p999_ms"]) + "ms",
                row["shed"],
                row["resets"],
            ]
        )
    record_table(
        "net_latency",
        "Open-loop network latency (Poisson arrivals, calibrated rates, "
        f"capacity {capacity:.0f} req/s closed-loop)",
        ["rate point", "target req/s", "achieved", "p50", "p99", "p999",
         "shed", "resets"],
        rows,
        extra={
            "scale": SCALE_NAME,
            "capacity_req_per_s": capacity,
            "n_shards": N_SHARDS,
            "max_inflight": MAX_INFLIGHT,
            "submit_every": SUBMIT_EVERY,
            "lookup_batch": LOOKUP_BATCH,
            "workers": NET_SCALE["workers"],
            "conns_per_worker": NET_SCALE["conns"],
            "duration_s": NET_SCALE["duration"],
            "low_rate_repeats": NET_SCALE["repeats"],
            "base_labels": NET_SCALE["base"],
            "rates": rates,
            "thresholds_checked": JUDGE_THRESHOLDS,
            "gate": gate,
        },
    )

    assert gate.get("failures", []) == [], "\n".join(gate.get("failures", []))
    # Graceful shedding is asserted at every scale: typed OVERLOADED
    # frames, zero connection resets, zero untyped errors — anywhere.
    for name, _ in RATE_POINTS:
        assert rates[name]["resets"] == 0, f"{name}: connection resets"
        assert rates[name]["errors"] == 0, f"{name}: untyped/failed requests"
    if JUDGE_THRESHOLDS:
        # Below the knee nothing is shed; past it the admission cap sheds
        # rather than queueing without bound...
        assert rates["low"]["shed"] == 0
        assert rates["overload"]["shed"] > 0, "overload produced no shedding"
        # ...so the p99 of *accepted* requests stays bounded — within a
        # modest multiple of the uncontended tail, not a collapse to the
        # run length (an unbounded queue would push p99 toward the full
        # duration; the cap holds it near MAX_INFLIGHT service times).
        # The bound is the admission cap's worth of service time (64
        # requests at calibrated capacity) with an order of magnitude of
        # slack — versus the seconds-long run an unbounded queue reaches.
        bound_ms = 10 * (MAX_INFLIGHT / results["capacity"]) * 1e3 + 200.0
        assert rates["overload"]["p99_ms"] < bound_ms, (
            f"latency collapse past the knee: p99 "
            f"{rates['overload']['p99_ms']:.1f}ms >= {bound_ms:.0f}ms"
        )
