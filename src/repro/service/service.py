"""Multi-reader / single-writer label service with snapshot-consistent reads.

This is the per-shard unit: :class:`~repro.service.sharded.ShardedLabelService`
constructs one :class:`LabelService` per shard (N >= 1) and is the only
service type the layers above ``repro.service`` know.  Each unit wraps one
:class:`~repro.core.interface.LabelingScheme` behind an epoch-based
snapshot protocol:

* **One writer.**  Writes are submitted as batches into a bounded
  :class:`~repro.service.queue.WriteQueue` (backpressure: producers block
  when it fills) and drained by a single writer thread that applies them
  through the group-commit :class:`~repro.core.batch.BatchExecutor`.  The
  writer holds the store's exclusive latch across each group and, still
  holding it, publishes a fresh :class:`~repro.service.epoch.Epoch` —
  an immutable modification-log snapshot — at every group commit.
* **Many readers.**  A :class:`ReaderSession` pins the current epoch and
  serves ``lookup`` / ``compare`` / pair / ancestor-axis calls entirely
  from per-session :class:`~repro.core.cachelog.LabelRef` caches, repaired
  by replaying the pinned epoch's log snapshot (Section 6 of the paper).
  Neither path touches the BOX or takes any lock, so reads run
  concurrently with the writer and with each other.
* **Fallthrough.**  Only when the log no longer covers a cached value's
  history (log overflow, or a range invalidation) does a reader fall
  through to a real BOX lookup, holding the store's latch in shared mode;
  the session then advances its pin to the epoch the lookup observed, so
  the session stays consistent with exactly one epoch at all times.

Consistency contract: every value a session returns equals the true label
value at the session's pinned epoch at the moment of the read, and a pin
only ever moves forward (never past the latest published epoch).  The
deterministic interleaving harness in ``tests/conc`` sweeps reader/writer
schedules to prove no torn or stale-beyond-log value can be observed.

All writes must go through the service (``submit_ops`` or the
``apply_ops_sync`` writer-context variant); mutating the scheme behind the
service's back leaves published epochs stale until the next commit.
"""

from __future__ import annotations

import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from ..core.batch import BatchOp, BatchResult, shift_refs
from ..core.cachelog import LABEL_CHANNEL, ORDINAL_CHANNEL, LabelRef, ModificationLog
from ..core.interface import Label, LabelingScheme
from ..errors import (
    CrashError,
    FsyncFailedError,
    RecoveryError,
    ServiceClosedError,
    ServiceDegradedError,
    ServiceError,
    TransientIOError,
    WriterCrashError,
)
from ..obs import trace
from ..obs.metrics import get_registry
from .epoch import Epoch, WriteTicket
from .queue import WriteQueue
from .stats import ServiceStats

#: Errors that kill the writer: the backend is gone (crashed / failed
#: fsync / unrecoverable) or a fault explicitly killed the writer thread.
#: Anything else is a per-batch failure — the ticket fails, the writer
#: keeps serving.
FATAL_WRITER_ERRORS = (CrashError, FsyncFailedError, RecoveryError, WriterCrashError)

#: The :class:`ServiceStats` values :meth:`LabelService.describe` reports.
DESCRIBED_COUNTERS = (
    "reads", "repair_hit_ratio", "fallthrough_reads", "epochs_published",
    "backpressure_waits", "write_retries", "write_merges",
    "degraded_write_rejects", "degraded_read_rejects", "max_epoch_lag",
)


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff for transient backend errors during commit.

    The service wraps its backend's ``commit`` so that a
    :class:`~repro.errors.TransientIOError` — raised before any side
    effect by definition — re-runs the commit after
    ``base_delay * multiplier**(attempt-1)`` seconds (capped at
    ``max_delay``), up to ``max_retries`` times.  Retrying at the commit
    level is what makes the policy sound: the group's in-memory mutations
    are already applied exactly once, and re-running the commit is
    idempotent (same WAL transaction, same page images).

    ``sleep`` is injectable so tests can count backoffs without waiting.
    """

    max_retries: int = 4
    base_delay: float = 0.005
    multiplier: float = 2.0
    max_delay: float = 0.25
    sleep: Callable[[float], None] = field(default=time.sleep, repr=False)

    def delay_for(self, attempt: int) -> float:
        """Backoff before retry ``attempt`` (1-based)."""
        return min(self.base_delay * self.multiplier ** (attempt - 1), self.max_delay)


def _noop_yield(tag: str) -> None:
    """Production yield hook: do nothing, cost one call."""


class LabelService:
    """Concurrent label-read service over one labeling scheme.

    Parameters
    ----------
    scheme:
        The :class:`LabelingScheme` this unit serializes writes to.
    log_capacity:
        Effects retained by the modification log.  This is the *write
        window* readers can ride without fallthrough: size it to cover the
        writes arriving between a session's reads.
    queue_capacity:
        Bounded write-queue depth (backpressure threshold).
    group_size:
        Group-commit size passed to the batch executor; each group commit
        publishes one epoch.
    latch:
        Shared/exclusive latch guarding direct BOX access.  Defaults to the
        scheme's ``store.latch``; the deterministic test harness injects a
        scheduler-aware one.
    yield_hook:
        Called with a tag string at each concurrency-relevant point
        (``read:begin``, ``read:fallthrough``, ``write:latch``,
        ``write:apply``, ``write:publish``).  Production default is a no-op;
        the interleaving harness uses it as its preemption points.
    epoch_hook:
        Called with each published :class:`Epoch` while the exclusive latch
        is still held — the test oracles use it to snapshot ground truth
        atomically with publication.
    retry_policy:
        Exponential-backoff policy for :class:`~repro.errors.TransientIOError`
        raised by the backend's commit.  Defaults to a small built-in
        policy; pass ``None`` to disable retries entirely.
    fault_injector:
        Optional :class:`~repro.faults.FaultInjector` consulted at the
        service's hook points (``service.writer_apply``,
        ``service.group_commit``).  A
        :class:`~repro.faults.ScopedFaultInjector` view makes the hooks
        addressable per shard (``service.writer_apply@shard1``).
    write_buffer:
        How many queued batches the writer may drain and merge into one
        application per wake-up (default 1 = today's behavior).  Values
        above 1 trade freshness for throughput: merged batches share one
        set of group commits (fewer WAL transactions, fewer epochs) but a
        submitter's ticket resolves only when the whole merged run
        commits, and a failing op fails every merged ticket.
    shard_name:
        Label attached to this service's :class:`ServiceStats` and its
        store's :class:`~repro.storage.stats.IOStats` (and to its apply
        spans) when the service is one shard of a
        :class:`~repro.service.sharded.ShardedLabelService`.  ``None``
        (default) keeps the unsharded, unlabeled metrics output.
    replica:
        Start in replica (read-only follower) mode: every write path is
        refused with :class:`~repro.errors.ServiceDegradedError`, exactly
        like degraded mode on the wire, but :attr:`degraded` stays False —
        the structure is healthy and fallthrough reads still work.  The
        replication follower applies shipped WAL transactions directly to
        the structure (under the exclusive latch) and publishes epochs;
        :meth:`promote` flips the service to a normal writable one
        (failover handoff).
    """

    def __init__(
        self,
        scheme: LabelingScheme,
        *,
        log_capacity: int = 1024,
        queue_capacity: int = 64,
        group_size: int = 64,
        latch: Any | None = None,
        yield_hook: Callable[[str], None] | None = None,
        epoch_hook: Callable[[Epoch], None] | None = None,
        retry_policy: RetryPolicy | None = RetryPolicy(),
        fault_injector: Any = None,
        write_buffer: int = 1,
        shard_name: str | None = None,
        replica: bool = False,
    ) -> None:
        self.scheme = scheme
        self.group_size = group_size
        if write_buffer < 1:
            raise ValueError(f"write_buffer must be >= 1, got {write_buffer}")
        self.write_buffer = write_buffer
        self.shard_name = shard_name
        self.stats = ServiceStats(shard=shard_name)
        if shard_name is not None:
            self.scheme.store.stats.shard = shard_name
        self.log = ModificationLog(log_capacity)
        self.scheme.add_log_listener(self.log.record)
        self._latch = latch if latch is not None else self.scheme.store.latch
        self._yield = yield_hook if yield_hook is not None else _noop_yield
        self._epoch_hook = epoch_hook
        self._queue = WriteQueue(queue_capacity, stats=self.stats)
        self._writer: threading.Thread | None = None
        self._closed = False
        self.retry_policy = retry_policy
        self.fault_injector = fault_injector
        #: Replica (read-only follower) mode; see the class docstring.
        self.replica = replica
        #: Why the service degraded, or None while healthy.  Set exactly
        #: once (the writer's dying act); reads are plain attribute loads.
        self._degraded_reason: str | None = None
        self._orig_commit: Callable[..., None] | None = None
        self._install_commit_retry()
        # Epoch 0: the state at service start (no effects to replay).
        self._current = Epoch(
            number=0,
            clock=self.scheme.clock,
            snapshot=self.log.snapshot(advance_epoch=False),
        )

    # ------------------------------------------------------------------
    # fault injection / retry / degradation
    # ------------------------------------------------------------------

    def _install_commit_retry(self) -> None:
        """Wrap the backend's ``commit`` with the retry policy.

        The wrap lives on the backend *instance*, so every commit the
        service's scheme performs — group commits, checkpoints — gets the
        policy; :meth:`close` restores the original.
        """
        policy = self.retry_policy
        if policy is None or policy.max_retries < 1:
            return
        backend = self.scheme.store.backend
        original = backend.commit
        self._orig_commit = original
        stats = self.stats

        def commit_with_retry(dirty_ids: Any) -> None:
            dirty = list(dirty_ids)
            attempt = 0
            while True:
                try:
                    return original(dirty)
                except TransientIOError:
                    attempt += 1
                    if attempt > policy.max_retries:
                        raise
                    stats.add(write_retries=1)
                    policy.sleep(policy.delay_for(attempt))

        backend.commit = commit_with_retry

    def _restore_commit(self) -> None:
        if self._orig_commit is not None:
            self.scheme.store.backend.commit = self._orig_commit
            self._orig_commit = None

    @property
    def degraded(self) -> bool:
        """Whether the service is in degraded read-only mode."""
        return self._degraded_reason is not None

    @property
    def degraded_reason(self) -> str | None:
        return self._degraded_reason

    def _enter_degraded(self, error: BaseException) -> None:
        """The writer's dying act: flip to read-only and fail fast.

        Pinned-epoch reads keep working (they never touch the structure);
        everything else — submits, sync applies, fallthrough reads — is
        refused with :class:`~repro.errors.ServiceDegradedError`.  Queued
        but unapplied batches have their tickets failed so no submitter
        blocks forever on a dead writer.
        """
        if self._degraded_reason is not None:
            return
        reason = f"{type(error).__name__}: {error}"
        self._degraded_reason = reason
        self.stats.add(degradations=1)
        get_registry().counter(
            "repro_service_degraded_total",
            help="label services that entered degraded read-only mode",
            labels={"error": type(error).__name__},
        ).inc()
        self._queue.close()
        while True:
            item = self._queue.get(timeout=0)
            if item is None:
                break
            ticket = item[0]
            ticket._fail(
                ServiceDegradedError(f"writer died before applying batch: {reason}")
            )

    def _check_writable(self) -> None:
        if self._degraded_reason is not None:
            self.stats.add(degraded_write_rejects=1)
            raise ServiceDegradedError(
                f"service is degraded (read-only): {self._degraded_reason}"
            )
        if self.replica:
            self.stats.add(degraded_write_rejects=1)
            raise ServiceDegradedError(
                "service is a replica (read-only); promote() to accept writes"
            )

    def promote(self) -> "LabelService":
        """Leave replica mode and become the writer (failover handoff).

        Clears the replica flag and starts the writer thread; subsequent
        submits are accepted.  The caller is responsible for making sure
        the old primary is no longer committing (split-brain is not
        detected here)."""
        self.replica = False
        return self.start()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def start(self) -> "LabelService":
        """Spawn the writer thread (idempotent)."""
        if self._closed:
            raise ServiceClosedError("service is closed")
        if self._writer is None:
            self._writer = threading.Thread(
                target=self._writer_loop, name="label-service-writer", daemon=True
            )
            self._writer.start()
        return self

    def stop(self, timeout: float | None = None) -> None:
        """Close the write queue, drain it, and join the writer."""
        self._queue.close()
        if self._writer is not None:
            self._writer.join(timeout)
            if self._writer.is_alive():
                raise ServiceError("writer thread did not stop in time")
            self._writer = None

    def close(self) -> None:
        """Stop and detach from the scheme's effect stream."""
        if self._closed:
            return
        self.stop()
        self._restore_commit()
        self.scheme.remove_log_listener(self.log.record)
        self._closed = True

    def __enter__(self) -> "LabelService":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # epochs
    # ------------------------------------------------------------------

    @property
    def current_epoch(self) -> Epoch:
        """The most recently published epoch (atomic reference read)."""
        return self._current

    @property
    def queue_depth(self) -> int:
        """Write batches accepted but not yet applied."""
        return len(self._queue)

    def _publish(self) -> None:
        """Publish a new epoch; caller holds the exclusive latch."""
        snapshot = self.log.snapshot()
        epoch = Epoch(number=snapshot.epoch, clock=self.scheme.clock, snapshot=snapshot)
        self._current = epoch
        self.stats.add(epochs_published=1)
        if self._epoch_hook is not None:
            self._epoch_hook(epoch)

    # ------------------------------------------------------------------
    # write path
    # ------------------------------------------------------------------

    def submit_ops(self, ops: Sequence[BatchOp], timeout: float | None = None) -> WriteTicket:
        """Queue a batch of scheme-level :class:`BatchOp` items.

        Blocks (backpressure) while the queue is full; returns a
        :class:`WriteTicket` resolved after the batch's last group commit.
        """
        self._check_writable()  # degraded mode fails fast, before the queue
        if self._writer is None:
            raise ServiceError("service not started; call start() or use apply_ops_sync")
        ticket = WriteTicket()
        # Carry the submitter's active span across the thread hop so the
        # writer's apply spans land in the submitting request's trace tree.
        try:
            self._queue.put((ticket, list(ops), trace.current_span()), timeout=timeout)
        except ServiceClosedError:
            # The writer died (closing the queue) while we were submitting.
            self._check_writable()
            raise
        return ticket

    def apply_ops_sync(self, ops: Sequence[BatchOp]) -> BatchResult:
        """Apply a batch on the calling thread (writer context).

        This is the writer loop's own code path; call it directly only
        when no writer thread is running (single-threaded use, or the
        deterministic harness's virtual writer).
        """
        self._check_writable()
        with trace.span("service.apply", kind="ops") as span:
            if span.recording and self.shard_name is not None:
                span.set("shard", self.shard_name)
            result = self.scheme.execute_batch(
                ops,
                group_size=self.group_size,
                on_group_start=self._on_group_start,
                on_group_commit=self._on_group_commit,
            )
            if span.recording:
                span.add("service.ops", len(ops))
        self.stats.add(batches_applied=1, ops_applied=len(ops))
        return result

    def _on_group_start(self) -> None:
        self._yield("write:latch")
        self._latch.acquire_exclusive()
        self._yield("write:apply")

    def _on_group_commit(self) -> None:
        # Runs after the group's dirty blocks flushed (and WAL-committed on
        # a durable backend).  Publish before releasing the latch so a
        # fallthrough reader can never see structure state ahead of the
        # published epoch.  The batch engine calls this from a ``finally``,
        # so an exception may be in flight: a group that *failed* (crashed
        # backend, injected writer kill) must NOT publish — its log
        # snapshot could expose a half-applied group as an epoch.
        try:
            in_flight = sys.exc_info()[1]
            if in_flight is None:
                # The writer-kill hook fires here, mid-commit: after the
                # group applied, before its epoch becomes visible.
                if self.fault_injector is not None:
                    self.fault_injector.hit("service.group_commit")
                self._yield("write:publish")
                self._publish()
            elif isinstance(in_flight, FATAL_WRITER_ERRORS):
                self._enter_degraded(in_flight)
        except FATAL_WRITER_ERRORS as error:
            # Degrade while the exclusive latch is still held: once it is
            # released, a fallthrough reader could otherwise slip in and
            # read this group's applied-but-never-published mutations
            # before the writer's except-path flips the flag.
            self._enter_degraded(error)
            raise
        finally:
            self._latch.release_exclusive()

    def _writer_loop(self) -> None:
        while True:
            item = self._queue.get()
            if item is None:
                return
            batch = [item]
            # Opportunistic write buffering: drain whatever else is already
            # queued (never waiting), up to write_buffer items.  Under load
            # the writer applies several submitted batches as one run,
            # sharing its group commits; when the queue is empty this takes
            # one timeout-0 get and the run is the one submitted batch.
            while len(batch) < self.write_buffer:
                extra = self._queue.get(timeout=0)
                if extra is None:
                    break
                batch.append(extra)
            if not self._apply_run(batch):
                return

    def _apply_run(self, batch: list) -> bool:
        """Apply the buffered batches (usually one) as a single run.

        Each submitter's ops are rebased (:func:`shift_refs`) onto the
        merged list so intra-batch :class:`~repro.core.batch.BatchRef`
        links stay valid, then every ticket resolves with its own slice
        of the positional results.  Group costs describe the shared run,
        so each ticket carries the full merged-run accounting.  Returns
        False when a fatal error killed the writer (caller must exit; the
        degradation path has already failed everything still queued).
        """
        merged: list[BatchOp] = []
        bounds: list[tuple[int, int]] = []
        for _ticket, payload, _span in batch:
            start = len(merged)
            merged.extend(shift_refs(payload, start))
            bounds.append((start, len(merged)))
        try:
            with trace.get_tracer().attach(batch[0][2]):
                result = self._apply_guarded(merged)
        except BaseException as error:
            # A run fails as a unit: the group engine may have committed
            # earlier groups spanning several submitters, so no single
            # ticket can claim clean success.  Every ticket sees the error;
            # the writer keeps serving unless the error killed it.
            self.stats.add(write_errors=1)
            for ticket, _payload, _span in batch:
                ticket._fail(error)
            return not isinstance(error, FATAL_WRITER_ERRORS)
        self.stats.add(write_merges=len(batch) - 1)
        for (ticket, _payload, _span), (start, end) in zip(batch, bounds):
            ticket._resolve(
                BatchResult(
                    results=result.results[start:end],
                    group_costs=result.group_costs,
                    group_sizes=result.group_sizes,
                    backend_commits=result.backend_commits,
                )
            )
        return True

    def _apply_guarded(self, ops: list[BatchOp]) -> BatchResult:
        """Apply one batch in writer context; on a fatal storage/fault
        error, enter degraded mode before re-raising.

        This is the writer loop's body, factored out so the deterministic
        interleaving harness can drive a *virtual* writer through exactly
        the production failure path (degrade-then-raise) on its own
        schedule."""
        try:
            if self.fault_injector is not None:
                self.fault_injector.hit("service.writer_apply")
            return self.apply_ops_sync(ops)
        except FATAL_WRITER_ERRORS as error:
            self._enter_degraded(error)
            raise

    # ------------------------------------------------------------------
    # read path
    # ------------------------------------------------------------------

    def session(self) -> "ReaderSession":
        """A new reader session pinned to the current epoch.

        Sessions are cheap; give each reader thread its own (a session is
        not itself thread-safe — its ref cache is private by design).
        """
        return ReaderSession(self, self._current)

    def describe(self) -> dict[str, Any]:
        """Diagnostic summary for CLIs and tests."""
        counters = self.stats.snapshot()
        return {
            "scheme": self.scheme.name,
            "state": (
                "degraded" if self.degraded
                else "replica" if self.replica
                else "running"
            ),
            "degraded_reason": self._degraded_reason,
            "epoch": self._current.number,
            "queue_depth": self.queue_depth,
            "log_capacity": self.log.capacity,
            **{name: getattr(counters, name) for name in DESCRIBED_COUNTERS},
        }


class ReaderSession:
    """A pinned-epoch read view over a :class:`LabelService`.

    All reads reflect exactly the pinned epoch's state.  The pin advances
    only via :meth:`refresh` or a fallthrough read (log overflow), and
    never moves backwards.
    """

    def __init__(self, service: LabelService, epoch: Epoch) -> None:
        self._service = service
        self._epoch = epoch
        self._refs: dict[tuple[int, str], LabelRef] = {}

    @property
    def epoch(self) -> Epoch:
        """The session's currently pinned epoch."""
        return self._epoch

    def refresh(self) -> Epoch:
        """Advance the pin to the latest published epoch."""
        current = self._service._current
        if current.number > self._epoch.number:
            self._epoch = current
        return self._epoch

    # -- reads ---------------------------------------------------------

    def lookup(self, lid: int) -> Label:
        """The label behind ``lid`` at the pinned epoch."""
        return self._get(lid, LABEL_CHANNEL)

    def ordinal_lookup(self, lid: int) -> int:
        """The ordinal label behind ``lid`` at the pinned epoch."""
        return self._get(lid, ORDINAL_CHANNEL)

    def lookup_pair(self, start_lid: int, end_lid: int) -> tuple[Label, Label]:
        """(start, end) labels of one element, both at the pinned epoch."""
        start, end = self._get_consistent((start_lid, end_lid))
        return start, end

    def compare(self, lid1: int, lid2: int) -> int:
        """Document-order comparison at the pinned epoch: -1, 0, or +1."""
        label1, label2 = self._get_consistent((lid1, lid2))
        return (label1 > label2) - (label1 < label2)

    def is_ancestor(
        self,
        ancestor: tuple[int, int],
        descendant: tuple[int, int],
    ) -> bool:
        """Label-based ancestor-axis test between two (start LID, end LID)
        element pairs: ``l<(a) < l<(d)`` and ``l>(d) < l>(a)``."""
        if ancestor == descendant:
            return False
        a_start, a_end = ancestor
        d_start, d_end = descendant
        la_start, ld_start, ld_end, la_end = self._get_consistent(
            (a_start, d_start, d_end, a_end)
        )
        return la_start < ld_start and ld_end < la_end

    # -- internals -----------------------------------------------------

    def _get_consistent(self, lids: Sequence[int]) -> list[Label]:
        """Labels for several LIDs, all at one pinned epoch.

        A fallthrough on any component advances the pin mid-read, which
        would mix labels from two epochs (a torn multi-label read — the
        interleaving harness catches exactly this).  Retry the whole set
        whenever the pin moved; terminates because the pin only ever
        advances, and each retry starts from the newest pin.
        """
        counted: set[int] = set()
        while True:
            epoch = self._epoch
            values = [self._get(lid, LABEL_CHANNEL, counted) for lid in lids]
            if self._epoch is epoch:
                return values

    def _get(self, lid: int, channel: str, counted: set[int] | None = None) -> Label:
        service = self._service
        epoch = self._epoch
        service._yield("read:begin")
        service.stats.observe_lag(service._current.number - epoch.number)
        key = (lid, channel)
        ref = self._refs.get(key)
        if ref is None:
            ref = LabelRef(lid, channel=channel)
            self._refs[key] = ref
        if ref.value is not None:
            if ref.last_cached >= epoch.snapshot.last_modified:
                service.stats.add(reads=1, fresh_hits=1)
                return ref.value
            repaired = epoch.snapshot.replay(ref.value, ref.last_cached, channel)
            if repaired is not None:
                ref.value = repaired
                ref.last_cached = epoch.clock
                service.stats.add(reads=1, replay_hits=1)
                return repaired
        return self._fallthrough(ref, counted)

    def _fallthrough(self, ref: LabelRef, counted: set[int] | None = None) -> Label:
        """Latched BOX read; advances the session pin to the epoch the
        structure state belongs to."""
        service = self._service
        if service._degraded_reason is not None:
            # Degraded mode: the structure may hold an unpublished (even
            # half-applied) group from the writer's death.  Reads served
            # from pinned-epoch caches stay correct; a live BOX read could
            # observe the torn state, so it is refused, typed.
            service.stats.add(degraded_read_rejects=1)
            raise ServiceDegradedError(
                f"read needs a BOX fallthrough but the service is degraded: "
                f"{service._degraded_reason}"
            )
        service._yield("read:fallthrough")
        latch = service._latch
        latch.acquire_shared()
        try:
            # Re-check under the latch: a reader already blocked here when
            # the writer died acquires only after the dying group's commit
            # released exclusive — by which point the flag is set (the
            # writer degrades before releasing), so it cannot slip through.
            if service._degraded_reason is not None:
                service.stats.add(degraded_read_rejects=1)
                raise ServiceDegradedError(
                    f"read needs a BOX fallthrough but the service is "
                    f"degraded: {service._degraded_reason}"
                )
            # Holding the shared latch excludes the writer's group commits,
            # so the structure state and the published epoch agree.
            current = service._current
            if ref.channel == ORDINAL_CHANNEL:
                value = service.scheme.ordinal_lookup(ref.lid)
            else:
                value = service.scheme.lookup(ref.lid)
            clock = service.scheme.clock
        finally:
            latch.release_shared()
        if current.number > self._epoch.number:
            self._epoch = current
        ref.value = value
        ref.last_cached = clock
        # A multi-label read retries the whole set when a fallthrough moved
        # the pin, so the same LID can fall through once per retry round.
        # That is one logical read of one label: count it once.  Skipping
        # the whole add (not just fallthrough_reads) keeps the invariant
        # reads == fresh_hits + replay_hits + fallthrough_reads.
        if counted is None or ref.lid not in counted:
            if counted is not None:
                counted.add(ref.lid)
            service.stats.add(reads=1, fallthrough_reads=1)
        return value
