"""Multi-reader / single-writer label service with snapshot-consistent reads.

This is the per-shard unit: :class:`~repro.service.sharded.ShardedLabelService`
constructs one :class:`LabelService` per shard (N >= 1) and is the only
service type the layers above ``repro.service`` know.  Each unit wraps one
:class:`~repro.core.interface.LabelingScheme` behind an epoch-based
snapshot protocol:

* **One writer.**  Writes are submitted as batches into a bounded
  :class:`~repro.service.queue.WriteQueue` (backpressure: producers block
  when it fills) and drained by a single writer thread that applies them
  through the group-commit :class:`~repro.core.batch.BatchExecutor`.  Each
  wake-up takes every batch already queued, holds the store's exclusive
  latch across all of them and one durable commit, and, still holding it,
  publishes one fresh :class:`~repro.service.epoch.Epoch` — an immutable
  modification-log snapshot — so a published epoch is always durable.
* **Many readers.**  A :class:`ReaderSession` pins the current epoch and
  resolves LIDs to label values entirely from per-session
  :class:`~repro.core.cachelog.LabelRef` caches, repaired by replaying the
  pinned epoch's log snapshot (Section 6 of the paper).
  Neither path touches the BOX or takes any lock, so reads run
  concurrently with the writer and with each other.
* **Fallthrough.**  Only when the log no longer covers a cached value's
  history (log overflow, or a range invalidation) does a read fall
  through to the BOX: every such LID of the read in one shared-latch
  hold.  The session then advances its pin to the epoch that hold
  observed, so it stays consistent with exactly one epoch at all times.

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

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from ..core.batch import BatchOp, BatchResult
from ..core.cachelog import LABEL_CHANNEL, ORDINAL_CHANNEL, LabelRef, ModificationLog
from ..core.cachelog import noop_hook, serve_refs
from ..core.interface import Label, LabelingScheme
from ..errors import (
    CrashError,
    FsyncFailedError,
    RecoveryError,
    ServiceClosedError,
    ServiceDegradedError,
    ServiceError,
    TransientIOError,
    UnknownLIDError,
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
    idempotent (same WAL transaction: same tape, same DELTA).

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
        Group size passed to the batch executor (the measured-I/O scope;
        every group of a writer wake-up shares its one commit and epoch).
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
        shard_name: str | None = None,
        replica: bool = False,
    ) -> None:
        self.scheme = scheme
        self.group_size = group_size
        self.shard_name = shard_name
        self.stats = ServiceStats(shard=shard_name)
        if shard_name is not None:
            self.scheme.store.stats.shard = shard_name
        self.log = ModificationLog(log_capacity)
        self.scheme.add_log_listener(self.log.record)
        self._latch = latch if latch is not None else self.scheme.store.latch
        self._yield = yield_hook if yield_hook is not None else noop_hook
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

        def commit_with_retry(dirty_ids: Any, tape: Any = None) -> None:
            dirty = list(dirty_ids)
            attempt = 0
            while True:
                try:
                    return original(dirty, tape)
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
        :class:`WriteTicket` resolved once the wake-up that applied the
        batch has committed and published its epoch.
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
        """Apply a batch on the calling thread as a wake-up of its own
        (one commit, one epoch); raises the batch's error.

        This is the writer loop's own code path; call it directly only
        when no writer thread is running (single-threaded use, or the
        deterministic harness's virtual writer).
        """
        self._check_writable()
        (outcome,) = self._apply_wakeup([ops])
        if isinstance(outcome, BaseException):
            raise outcome
        return outcome

    def _writer_loop(self) -> None:
        while True:
            item = self._queue.get()
            if item is None:
                return
            items = [item]
            # Everything already queued shares this wake-up's commit: take
            # it without waiting, at most a full queue's worth.
            while len(items) < self._queue.capacity:
                extra = self._queue.get(timeout=0)
                if extra is None:
                    break
                items.append(extra)
            try:
                with trace.get_tracer().attach(items[0][2]):
                    outcomes: list = self._apply_wakeup([ops for _t, ops, _s in items])
            except BaseException as error:
                # The wake-up's commit failed (or the writer died): every
                # ticket shared it, so every ticket sees the error.
                outcomes = [error] * len(items)
            failed = 0
            for (ticket, _ops, _span), outcome in zip(items, outcomes):
                if isinstance(outcome, BaseException):
                    failed += 1
                    ticket._fail(outcome)
                else:
                    ticket._resolve(outcome)
            if failed:
                self.stats.add(write_errors=failed)
            if isinstance(outcomes[0], FATAL_WRITER_ERRORS):
                return  # degrading already failed everything still queued

    def _apply_wakeup(self, batches: Sequence[Sequence[BatchOp]]) -> list:
        """Apply ``batches`` as one wake-up: one exclusive latch, one
        durable commit, one published epoch.

        Each batch runs as its own :meth:`~LabelingScheme.execute_batch`,
        so a non-fatal error fails that batch alone: its outcome is the
        exception, its in-memory effects are what running it alone leaves,
        and the next batch runs on.  Returns one :class:`BatchResult` (its
        ``backend_commits`` the wake-up's shared commit) or exception per
        batch, in order.  An error that escapes — the commit's own, or a
        fatal one — publishes nothing; a fatal one degrades the service
        before the latch is released, then re-raises.

        This is the writer loop's body, factored out so
        :meth:`apply_ops_sync` and the deterministic interleaving harness
        drive exactly the production path, failure path included.
        """
        store = self.scheme.store
        latched = False
        try:
            if self.fault_injector is not None:
                self.fault_injector.hit("service.writer_apply")
            self._yield("write:latch")
            self._latch.acquire_exclusive()
            latched = True
            self._yield("write:apply")
            with trace.span("service.apply", kind="ops") as span:
                if span.recording and self.shard_name is not None:
                    span.set("shard", self.shard_name)
                commits_before = store.backend.commits
                with store.durable():
                    outcomes = [self._apply_batch(ops) for ops in batches]
                commits = store.backend.commits - commits_before
                if span.recording:
                    span.add("service.ops", sum(len(ops) for ops in batches))
            # The writer-kill hook fires here, mid-commit: after the
            # wake-up committed, before its epoch becomes visible.
            if self.fault_injector is not None:
                self.fault_injector.hit("service.group_commit")
            self._yield("write:publish")
            # Publish before releasing the latch so a fallthrough reader can
            # never see structure state ahead of the published epoch.
            self._publish()
        except FATAL_WRITER_ERRORS as error:
            # Degrade while the exclusive latch is still held: once it is
            # released, a fallthrough reader could otherwise slip in and
            # read this wake-up's applied-but-never-published mutations
            # before the flag flips.
            self._enter_degraded(error)
            raise
        finally:
            if latched:
                self._latch.release_exclusive()
        applied = [
            (ops, outcome)
            for ops, outcome in zip(batches, outcomes)
            if not isinstance(outcome, BaseException)
        ]
        for _ops, result in applied:
            result.backend_commits = commits
        self.stats.add(
            batches_applied=len(applied),
            ops_applied=sum(len(ops) for ops, _result in applied),
            write_merges=len(batches) - 1,
        )
        return outcomes

    def _apply_batch(self, ops: Sequence[BatchOp]) -> BatchResult | Exception:
        """One batch of a wake-up: its result, or its non-fatal error."""
        try:
            return self.scheme.execute_batch(ops, group_size=self.group_size)
        except FATAL_WRITER_ERRORS:
            raise
        except Exception as error:
            return error

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
    only via :meth:`refresh` or a read the log cannot serve, and never
    moves backwards.  :meth:`resolve` is the one read; order and ancestry
    are label arithmetic over it, done one layer up by
    :class:`~repro.service.sharded.ShardedReaderSession`.
    """

    def __init__(self, service: LabelService, epoch: Epoch) -> None:
        self._service = service
        self._epoch = epoch
        self._refs: dict[str, dict[int, LabelRef]] = {LABEL_CHANNEL: {}, ORDINAL_CHANNEL: {}}

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

    def resolve(self, lids: Sequence[int], channel: str = LABEL_CHANNEL) -> list[Label]:
        """Values on ``channel`` for ``lids``, all exact at the pin held at
        return: Section 6's read over a set of references.

        One lock-free pass serves each LID from its ref, fresh or replayed
        over the pinned snapshot.  The LIDs the log cannot bridge are read
        from the BOX under one shared-latch hold, which advances the pin;
        a second pass at the new pin brings the others forward.  Only a
        miss there (the log overflowed between the two pins) goes round
        again; pins only advance, so this ends.  Each LID counts once, in
        one ``add``, by how the first pass served it.
        """
        service = self._service
        refs = self._refs[channel]
        epoch = self._epoch
        lag = service._current.number - epoch.number
        values, missed, replayed = serve_refs(
            refs, lids, epoch.snapshot, epoch.clock, channel, service._yield
        )
        fell = len(missed) if missed else 0
        while missed:
            epoch = self._read_through(missed, channel)
            # Later passes run at a pin only this call moved: nothing a
            # preemption there could interleave changes what they return.
            values, missed, _ = serve_refs(refs, lids, epoch.snapshot, epoch.clock, channel)
        reads = len(lids)
        service.stats.add(
            reads=reads, fresh_hits=reads - replayed - fell, replay_hits=replayed,
            fallthrough_reads=fell, lag_sum=lag * reads, lag_samples=reads, max_epoch_lag=lag,
        )
        return values

    # -- internals -----------------------------------------------------

    def _refuse_if_degraded(self) -> None:
        """Degraded mode: the structure may hold an unpublished (even
        half-applied) group from the writer's death.  Cached reads stay
        correct; a BOX read could observe the torn state: refused, typed."""
        service = self._service
        if service._degraded_reason is not None:
            service.stats.add(degraded_read_rejects=1)
            raise ServiceDegradedError(
                f"read needs a BOX fallthrough but the service is degraded: "
                f"{service._degraded_reason}"
            )

    def _read_through(self, missed: list[int], channel: str) -> Epoch:
        """Read ``missed`` from the BOX under one shared-latch hold, cache
        each value in a ref and advance the pin to the epoch that structure
        state belongs to.  A read that raises caches nothing and leaves
        the pin where it was; one that meets a freed LID also drops the
        refs of ``missed``, which no replay can serve any more."""
        service = self._service
        pending = list(dict.fromkeys(missed))  # a LID named twice is read once
        self._refuse_if_degraded()
        service._yield("read:fallthrough")
        latch = service._latch
        latch.acquire_shared()
        try:
            # Re-check under the latch: a reader already blocked here when
            # the writer died acquires only after the dying group's commit
            # released exclusive — by which point the flag is set (the
            # writer degrades before releasing), so it cannot slip through.
            self._refuse_if_degraded()
            # Holding the shared latch excludes the writer's wake-ups,
            # so the structure state and the published epoch agree.
            current = service._current
            scheme = service.scheme
            values = scheme.lookup_many(pending, channel)
            clock = scheme.clock
        except UnknownLIDError:
            for lid in pending:
                self._refs[channel].pop(lid, None)
            raise
        finally:
            latch.release_shared()
        if current.number > self._epoch.number:
            self._epoch = current
        refs = self._refs[channel]
        for lid, value in zip(pending, values):
            refs[lid] = LabelRef(lid, value, clock, channel)
        return self._epoch
