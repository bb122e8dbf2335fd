"""Process control, noise controls and estimators shared by the workloads.

Everything here treats the program as a black box: the server is the
unmodified ``repro serve`` child, observed through ``/proc`` and its
socket; of ``src/`` only the public client, its typed errors and the
frame encoder are imported.
"""

from __future__ import annotations

import gc
import os
import random
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Sequence

from repro.errors import ReproError
from repro.net.client import NetClient
from repro.net.protocol import encode_frame

HERE = Path(__file__).resolve().parent
REPO = HERE.parent.parent
SRC = REPO / "src"

#: Longest the harness waits for any single reply, start or stop.
WAIT_SECONDS = 60.0


class BenchmarkError(Exception):
    """The benchmark cannot produce a valid measurement (not a wrong
    answer from the program — those are counted, not raised)."""


# ----------------------------------------------------------------------
# noise controls
# ----------------------------------------------------------------------


def pin_to_one_cpu() -> int:
    """Pin this process (and every child it spawns) to the highest CPU it
    is allowed on.  One core for server, load generator and writer threads
    makes throughput measure CPU work per op instead of thread placement;
    the benchmark refuses to run unpinned."""
    try:
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError) as error:
        raise BenchmarkError(
            f"cannot pin to one CPU ({error!r}); the end-to-end benchmark "
            "is only comparable on a single pinned core"
        ) from error
    return cpu


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(REPO)])
    return env


def make_data_parent() -> tuple[Path, bool]:
    """A fresh directory for this run's data roots: on tmpfs when
    ``/dev/shm`` is usable (fsync stays on — the barrier code path and
    syscalls are unchanged, only the device's latency is removed), else
    under the benchmark's own directory with ``tmpfs`` reported false."""
    shm = Path("/dev/shm")
    if shm.is_dir() and os.access(shm, os.W_OK | os.X_OK):
        try:
            return Path(tempfile.mkdtemp(prefix="repro-e2e-", dir=shm)), True
        except OSError:
            pass
    work = HERE / ".work"
    work.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix="run-", dir=work)), False


def filesystem_of(path: Path) -> str:
    """Filesystem type of the mount holding ``path`` (longest prefix)."""
    best, fstype = "", "unknown"
    try:
        with open("/proc/mounts", encoding="utf-8") as handle:
            for line in handle:
                _dev, mount, kind = line.split()[:3]
                if str(path).startswith(mount) and len(mount) > len(best):
                    best, fstype = mount, kind
    except OSError:
        pass
    return fstype


#: The reference's value on an idle core of the host class this benchmark
#: was sized on.  Only fixes the unit of the normalised timings.
REF_NOMINAL_MS = 3.0

#: 32 MB of touched pages and a fixed pseudo-random walk over them.
_REF_BUFFER = bytearray(b"\x01") * (1 << 25)
_REF_RNG = random.Random(0)
_REF_WALK = [_REF_RNG.randrange(1 << 25) for _ in range(30_000)]


def host_ref_ms() -> float:
    """The host's speed *now*: geometric mean of a fixed arithmetic loop
    (interpreter speed) and a fixed random walk over 32 MB (cache and
    memory contention), in ms.

    Sampled directly before and after every slice.  On a shared host the
    same core runs the same bytecode 1.0-1.6x slower from one minute to
    the next (SMT siblings, steal, cache pressure from neighbours), and
    the slow-down hits memory-heavy code harder than register-only code;
    every timing metric is therefore expressed relative to this reference
    measured around the slice it came from (see :func:`timing_metrics`).
    Sizing data for the choice of reference is in the README."""
    started = time.perf_counter()
    total = 0
    for value in range(60_000):
        total += value * value & 7
    middle = time.perf_counter()
    buffer = _REF_BUFFER
    for index in _REF_WALK:
        total += buffer[index]
    return ((middle - started) * (time.perf_counter() - middle)) ** 0.5 * 1e3


# ----------------------------------------------------------------------
# /proc observation
# ----------------------------------------------------------------------


class Proc:
    """CPU, written bytes and peak RSS of one process, from ``/proc``."""

    def __init__(self, pid: int | None = None) -> None:
        self.base = f"/proc/{pid if pid is not None else 'self'}"

    def cpu_ns(self) -> int:
        """User+system CPU of all live threads.  ``schedstat`` has
        nanosecond resolution; ``stat`` (10 ms ticks) is the fallback on
        kernels built without scheduler statistics."""
        total = 0
        try:
            for task in os.listdir(f"{self.base}/task"):
                with open(f"{self.base}/task/{task}/schedstat", encoding="ascii") as handle:
                    total += int(handle.read().split()[0])
        except (OSError, ValueError, IndexError):
            total = 0
        if total:
            return total
        with open(f"{self.base}/stat", encoding="ascii") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        ticks = int(fields[11]) + int(fields[12])  # utime + stime
        return ticks * 1_000_000_000 // os.sysconf("SC_CLK_TCK")

    def wchar(self) -> int:
        """Bytes passed to write-like syscalls (files and sockets)."""
        with open(f"{self.base}/io", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("wchar:"):
                    return int(line.split()[1])
        raise BenchmarkError(f"{self.base}/io has no wchar field")

    def peak_rss_mb(self) -> float:
        with open(f"{self.base}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchmarkError(f"{self.base}/status has no VmHWM field")


def tree_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


# ----------------------------------------------------------------------
# the server child
# ----------------------------------------------------------------------


class Server:
    """One ``repro serve --listen`` child over a file-backed root.

    The same command creates the root (bulk load + checkpoint) when it
    does not exist and reopens it (WAL recovery) when it does.  With
    ``trace_out`` the child is started through the benchmark's traced
    launcher instead of ``python -m repro``; everything else is equal.
    """

    def __init__(self, root: Path, shards: int, labels: int, trace_out: Path | None = None) -> None:
        self.root = root
        self.shards = shards
        self.labels = labels
        self.trace_out = trace_out
        self.proc: subprocess.Popen | None = None
        self.port = 0
        self.stderr_path = Path(f"{root}.stderr")

    def start(self) -> float:
        """Start the child; seconds until its first ``Ping`` answered."""
        launcher = (
            ["benchmarks.e2e.traced_serve", str(self.trace_out)]
            if self.trace_out is not None
            else ["repro"]
        )
        command = [
            sys.executable, "-m", *launcher, "serve",
            "--listen", "127.0.0.1:0",
            "--scheme", "wbox", "--block-bytes", "1024",
            "--shards", str(self.shards), "--base", str(self.labels),
            "--storage", "file", "--storage-path", str(self.root), "--fsync",
            # Admission cap well above anything a valid run queues, so a
            # host stall shows as latency and backlog, not as shed requests.
            "--max-inflight", "256",
        ]
        started = time.monotonic()
        with open(self.stderr_path, "ab") as stderr:
            self.proc = subprocess.Popen(
                command, stdout=subprocess.PIPE, stderr=stderr,
                env=child_env(), cwd=REPO, text=True,
            )
        assert self.proc.stdout is not None
        ready, _, _ = select.select([self.proc.stdout], [], [], WAIT_SECONDS)
        banner = self.proc.stdout.readline() if ready else ""
        if "listening on" not in banner:
            self.kill()
            raise BenchmarkError(
                f"server did not come up: {banner!r}; stderr: "
                f"{self.stderr_path.read_text(errors='replace')[-2000:]}"
            )
        self.port = int(banner.rsplit(":", 1)[1])
        with NetClient("127.0.0.1", self.port) as client:
            client.ping(timeout=WAIT_SECONDS)
        return time.monotonic() - started

    @property
    def pid(self) -> int:
        assert self.proc is not None
        return self.proc.pid

    def signal(self, signum: int) -> None:
        assert self.proc is not None
        self.proc.send_signal(signum)

    def _reap(self) -> None:
        assert self.proc is not None
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        self.proc = None

    def stop(self) -> float:
        """SIGTERM (the CLI checkpoints, then exits); seconds it took."""
        assert self.proc is not None
        started = time.monotonic()
        self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout=WAIT_SECONDS)
        except subprocess.TimeoutExpired:
            self.kill()
            raise BenchmarkError("server ignored SIGTERM") from None
        elapsed = time.monotonic() - started
        self._reap()
        if code != 0:
            raise BenchmarkError(
                f"server exited {code} on SIGTERM; stderr: "
                f"{self.stderr_path.read_text(errors='replace')[-2000:]}"
            )
        return elapsed

    def kill(self) -> None:
        """SIGKILL and wait — the crash in crash recovery."""
        if self.proc is None:
            return
        self.proc.kill()
        self.proc.wait()
        self._reap()


def setup_server(
    parent: Path, shards: int, labels: int, repeats: int,
    after_start: Callable[[Server], None] | None = None,
    trace_out: Path | None = None,
) -> tuple[Server, list[float]]:
    """Set a served root up ``repeats`` times in fresh directories.

    One set-up is what a user does to get a serving process over a cold
    store: first start (create root + bulk-load + checkpoint + listen),
    clean stop (shutdown checkpoint), second start on the existing root
    (open + WAL scan) until the first ``Ping`` answers, then
    ``after_start`` (e.g. seeding the query catalog).  The reopen matters:
    only a reopened store has an empty buffer pool, so first-touch reads
    really go through the page file and the codec.  The last set-up is
    kept and returned running; the earlier ones are killed and removed.
    With ``trace_out`` the second start goes through the traced launcher.
    Times are scaled to reference host speed like every other timing.
    """
    times: list[float] = []
    server: Server | None = None
    for attempt in range(repeats):
        if server is not None:
            server.kill()
            shutil.rmtree(server.root, ignore_errors=True)
        root = parent / f"root-{attempt}"
        server = Server(root, shards, labels)

        def second_start() -> None:
            server.trace_out = trace_out
            server.start()
            if after_start is not None:
                after_start(server)

        # Each phase is scaled by the reference sampled at its own ends.
        total = 0.0
        ref_before = host_ref_ms()
        for phase in (server.start, server.stop, second_start):
            started = time.monotonic()
            phase()
            elapsed = time.monotonic() - started
            ref_after = host_ref_ms()
            total += elapsed * 2 * REF_NOMINAL_MS / (ref_before + ref_after)
            ref_before = ref_after
        times.append(total)
    assert server is not None
    return server, times


# ----------------------------------------------------------------------
# slices and estimators
# ----------------------------------------------------------------------


@dataclass
class Slice:
    """One equal-work slice of the measured phase."""

    kind: str  # "latency" | "throughput" | "both"
    ops: int
    wall: float
    latencies: list[float]
    cpu_ns: int
    wchar: int
    t0_ns: int
    t1_ns: int
    ref_ms: float = 0.0
    group: str = ""
    #: Wire bytes of the replies the server sent in this slice.
    reply_bytes: int = 0

    @property
    def p50(self) -> float:
        return statistics.median(self.latencies)


@dataclass
class Outcome:
    """What one workload run produced, before metric naming."""

    slices: list[Slice] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    wrong: list[str] = field(default_factory=list)
    latencies: list[float] = field(default_factory=list)
    extra: dict[str, Any] = field(default_factory=dict)

    def fail(self, message: str) -> None:
        """Record a wrong answer (keeps the first few for the report)."""
        self.failed += 1
        if len(self.wrong) < 10:
            self.wrong.append(message)


def exact_slices(slices: list[Slice]) -> list[Slice]:
    """The slices in which each request's bytes and spans are exactly its
    own: the latency slices of a socket workload — one request in flight
    per connection — or every slice where there is only one kind."""
    latency = [item for item in slices if item.kind == "latency"]
    return latency or list(slices)


def median_of(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def percentile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def timing_metrics(slices: list[Slice], normalise: bool = True) -> dict[str, float]:
    """``ops_s``, ``p50_ms`` and ``cpu_ms_per_op`` as medians over slices.

    Every slice's time is first scaled by ``REF_NOMINAL_MS / ref_ms`` —
    the host reference loop measured right around that slice — so a
    metric reads "ms on a host whose reference takes 3 ms".  Slow
    drift of the host's speed cancels; what remains is the program's cost
    relative to plain interpreter work on the same core at the same time.
    (``normalise=False`` gives the raw numbers, kept in the run record.)

    Slices are grouped (slice kind, and for ``embed_xmark`` scheme × phase)
    because groups have different per-op cost by design; a median across a
    mixture would sit on the boundary between two clusters and jump with
    noise.  Within a group the estimator is the median over slices — a
    burst of host contention moves a few slices, not the result — and
    groups combine weighted by their op counts.
    """
    def scale(item: Slice) -> float:
        return REF_NOMINAL_MS / item.ref_ms if normalise else 1.0

    groups: dict[str, list[Slice]] = {}
    for item in slices:
        groups.setdefault(f"{item.group}/{item.kind}", []).append(item)
    thr_ops = thr_time = lat_ops = lat_sum = cpu_ops = cpu_sum = 0.0
    for members in groups.values():
        ops = sum(item.ops for item in members)
        if members[0].kind in ("throughput", "both"):
            thr_ops += ops
            thr_time += ops * median_of([scale(item) * item.wall / item.ops for item in members])
        if members[0].kind in ("latency", "both"):
            lat_ops += ops
            lat_sum += ops * median_of([scale(item) * item.p50 for item in members])
        cpu_ops += ops
        cpu_sum += ops * median_of([scale(item) * item.cpu_ns / item.ops for item in members])
    return {
        "ops_s": thr_ops / thr_time if thr_time else 0.0,
        "p50_ms": lat_sum / lat_ops * 1e3 if lat_ops else 0.0,
        "cpu_ms_per_op": cpu_sum / cpu_ops / 1e6 if cpu_ops else 0.0,
    }


# ----------------------------------------------------------------------
# closed-loop driver
# ----------------------------------------------------------------------


def begin(client: Any, request: tuple) -> Any:
    """Send one request frame without waiting; returns its Pending."""
    kind = request[0]
    if kind == "lookup":
        return client.begin_lookup(request[1])
    if kind == "compare":
        return client.begin_compare(request[1])
    if kind == "submit":
        return client.begin_submit(request[1])
    if kind == "query":
        return client.begin_query(request[1], request[2], request[3])
    if kind == "refresh":
        return client.begin_refresh()
    raise ValueError(f"unknown request kind {kind!r}")


def collect(pending: Any, request: tuple, timeout: float = WAIT_SECONDS) -> Any:
    """Block for a reply: the frame, or for a query its list of chunk
    frames (checked to carry one epoch vector).  Raises the typed
    exception of an error frame."""
    if request[0] == "query":
        pending.result(timeout)
        return pending.chunks
    return pending.wait(timeout)


def reply_wire_bytes(reply: Any) -> int:
    """Bytes the server put on the socket for one reply (``/proc`` does
    not count socket sends, so the harness re-encodes what it received)."""
    frames = reply if isinstance(reply, list) else [reply]
    return sum(len(encode_frame(frame)) for frame in frames)


def closed_slice(
    clients: Sequence[Any],
    proc: Proc,
    kind: str,
    count: int,
    depth: int,
    make_request: Callable[[int], tuple[int, tuple]],
    outcome: Outcome,
    first_index: int = 0,
    on_reply: Callable[[int, tuple, Any], None] | None = None,
) -> tuple[Slice, list[tuple]]:
    """Run ``count`` requests with at most ``depth`` in flight.

    ``make_request(i)`` gives ``(connection index, request)`` and is called
    at send time (a write tape may depend on earlier replies); ``on_reply``, if given, sees replies in send order
    inside the timed region and must be cheap.  Returns the slice and its ``(request, reply)`` list, which the
    caller checks between slices.  A request that errors or times out is
    counted failed; a closed-loop workload with any failure is invalid.
    """
    latencies: list[float] = []
    replies: list[tuple] = []
    inflight: deque = deque()

    def reap() -> None:
        index, request, sent, pending = inflight.popleft()
        try:
            reply = collect(pending, request)
        except (ReproError, ConnectionError, TimeoutError) as error:
            outcome.fail(f"request {index} {request[0]}: {error!r}")
            return
        latencies.append(pending.completed_at - sent)
        replies.append((request, reply))
        if on_reply is not None:
            on_reply(index, request, reply)

    gc.collect()
    gc.disable()  # no collector pauses in the load generator mid-slice
    try:
        ref_before = host_ref_ms()
        cpu0, wchar0 = proc.cpu_ns(), proc.wchar()
        t0_ns = time.monotonic_ns()
        for index in range(first_index, first_index + count):
            connection, request = make_request(index)
            sent = time.monotonic()
            inflight.append((index, request, sent, begin(clients[connection], request)))
            if len(inflight) >= depth:
                reap()
        while inflight:
            reap()
        t1_ns = time.monotonic_ns()
        cpu1, wchar1 = proc.cpu_ns(), proc.wchar()
        ref_ms = (ref_before + host_ref_ms()) / 2
    finally:
        gc.enable()
    outcome.attempted += count
    outcome.latencies.extend(latencies)
    if not latencies:
        raise BenchmarkError(f"slice produced no replies: {outcome.wrong}")
    item = Slice(
        kind, count, (t1_ns - t0_ns) / 1e9, latencies, cpu1 - cpu0, wchar1 - wchar0, t0_ns, t1_ns,
        ref_ms=ref_ms,
        reply_bytes=sum(reply_wire_bytes(reply) for _request, reply in replies),
    )
    return item, replies
