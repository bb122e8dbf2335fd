"""Block store: I/O counting and per-operation buffering over a backend.

The store models a disk of fixed-size blocks.  It is now a *stack*:

* a pluggable :class:`~repro.storage.backend.StorageBackend` owns payload
  residency and allocation ids — :class:`~repro.storage.backend.MemoryBackend`
  (the default) keeps live Python objects and never serializes on the hot
  path, while :class:`~repro.storage.filebackend.FileBackend` round-trips
  every block through :mod:`repro.storage.codec` into a real page file
  with write-ahead logging;
* an :class:`OperationBuffer` scopes one logical operation's scratch
  blocks (the paper's measurement methodology);
* a :class:`~repro.storage.cache.BlockCache` optionally keeps blocks hot
  across operations (LRU or segmented LRU);
* :class:`~repro.storage.stats.IOStats` tallies what the two layers above
  decide is a counted I/O.

Measurement methodology (matches Section 7 of the paper):

* By default there is **no cross-operation caching**.  During a single
  logical operation, however, "a small number of memory blocks are available
  for buffering blocks that need to be immediately revisited; they are always
  evicted from the memory as soon as the operation completes."  We implement
  exactly that: inside an :meth:`operation` context the first read of each
  block costs one I/O and later reads are free; each block dirtied during the
  operation costs one write when the operation completes.  With a file
  backend, that flush is also the durability point: the dirty blocks are
  committed as one WAL transaction — unless a :meth:`BlockStore.durable`
  scope is open, which gathers the flushes of every operation inside it
  into one commit at its outermost exit, together with the *tape* of the
  batches that dirtied them (:meth:`BlockStore.taped`).
* An optional cache (``cache_capacity > 0``) reproduces the paper's
  "caching turned on" remark — reads served from the cache are free (the
  root then tends to be cached at all times); writes are write-through and
  still counted.  Two replacement policies are available: plain LRU
  (``cache_mode="lru"``, the default) and segmented LRU
  (``cache_mode="slru"``); see :mod:`repro.storage.cache`.

The counters are *logical*: a given sequence of operations produces the
same :class:`IOStats` on every backend.  What changes with the backend is
the physical work behind each counted I/O — which is exactly what the
backend-correlation benchmark measures.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Any, Callable, Iterator

from ..config import BoxConfig
from ..errors import BlockNotFoundError, LabelingError, StorageError
from ..obs import trace
from .backend import MemoryBackend, StorageBackend, Tape
from .cache import BlockCache
from .stats import IOStats, OperationCost

#: Errors a batch raises the same way when re-run on the same state — a
#: scheme op's typed refusal, a malformed op's arguments — and so may end
#: a logged tape row (:meth:`BlockStore.taped`).
REPLAYABLE_ERRORS = (LabelingError, TypeError, LookupError)


class ReaderWriterLatch:
    """A shared/exclusive latch guarding direct structure reads.

    The label service's snapshot protocol keeps readers off the BOX
    entirely (they serve from epoch-pinned caches); only *fallthrough*
    reads — a cache too stale for the modification log to repair — touch
    the structure, and they do so holding this latch in shared mode while
    the writer holds it exclusively across each wake-up's commit.

    Writer preference: once a writer is waiting, new shared acquirers
    queue behind it, so a steady reader stream cannot starve the write
    path; :meth:`try_acquire_shared` refuses instead of queueing.  Shared
    holds are re-entrant per thread: a thread that already holds the latch
    shared (the network front end holds it across a whole read frame)
    takes it again without waiting, so its own fallthrough cannot queue
    behind a waiting writer that is in turn waiting on it.  The latch is
    advisory — single-threaded code never takes it.
    """

    def __init__(self) -> None:
        # A plain lock under the condition: the shared paths take it
        # directly, ~0.7 us cheaper per try + release than entering the
        # condition (a Python-level wrapper around an RLock).
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._active_readers = 0
        self._writer_active = False
        self._writers_waiting = 0
        self._held = threading.local()  # .depth: this thread's shared holds

    def acquire_shared(self) -> None:
        held = self._held
        depth = getattr(held, "depth", 0)
        if not depth:
            with self._lock:
                while self._writer_active or self._writers_waiting:
                    self._cond.wait()
                self._active_readers += 1
        held.depth = depth + 1

    def try_acquire_shared(self) -> bool:
        """Take the latch shared if that needs no wait: False while a
        writer is active or waiting (unless this thread already holds it)."""
        held = self._held
        depth = getattr(held, "depth", 0)
        if not depth:
            with self._lock:
                if self._writer_active or self._writers_waiting:
                    return False
                self._active_readers += 1
        held.depth = depth + 1
        return True

    def release_shared(self) -> None:
        held = self._held
        held.depth = depth = held.depth - 1
        if depth:
            return
        with self._lock:
            self._active_readers -= 1
            if not self._active_readers and self._writers_waiting:
                self._cond.notify_all()  # only a writer waits for readers to leave

    def acquire_exclusive(self) -> None:
        with self._cond:
            self._writers_waiting += 1
            try:
                while self._writer_active or self._active_readers:
                    self._cond.wait()
            finally:
                self._writers_waiting -= 1
            self._writer_active = True

    def release_exclusive(self) -> None:
        with self._cond:
            self._writer_active = False
            self._cond.notify_all()

    @contextmanager
    def exclusive(self) -> Iterator[None]:
        """Hold the latch in exclusive (writer) mode for the context."""
        self.acquire_exclusive()
        try:
            yield
        finally:
            self.release_exclusive()


class OperationBuffer:
    """Scratch-buffer state of the current logical operation.

    Tracks the nesting depth plus the blocks read (buffered, later reads
    free) and dirtied (one write each at the outermost exit) since the
    outermost scope opened; and, for :meth:`BlockStore.durable`, its own
    depth, the flushed blocks waiting for its one commit and the
    :data:`~repro.storage.backend.Tape` that re-creates them (a backend
    that logs nothing never calls its encoders).  The outermost operation
    scope keeps its trace scope here, and its span and opening I/O if traced.
    """

    __slots__ = (
        "depth", "read", "dirty", "durable", "pending", "tape", "taping", "scope", "traced",
    )

    def __init__(self) -> None:
        self.depth = 0
        self.read: set[int] = set()
        self.dirty: set[int] = set()
        self.durable = 0
        self.pending: set[int] = set()
        self.tape: Tape = []
        self.taping = 0
        self.scope: Any = trace.NOOP_SPAN
        self.traced: tuple | None = None

    def forget(self, block_id: int) -> None:
        """Drop a freed block from the scratch buffers (its pending write,
        if any, is cancelled)."""
        self.read.discard(block_id)
        self.dirty.discard(block_id)
        self.pending.discard(block_id)


class _ThreadBuffer(threading.local):
    """Holds each thread's own :class:`OperationBuffer` as ``value``."""

    def __init__(self) -> None:
        self.value = OperationBuffer()


class BlockStore:
    """A counted collection of fixed-size blocks over a storage backend.

    Parameters
    ----------
    config:
        Block geometry (used by clients; the store itself only needs it for
        reporting).
    stats:
        Shared :class:`IOStats`; a fresh one is created when omitted.
    cache_capacity:
        Number of blocks kept in a persistent cache across operations.
        ``0`` (the default) reproduces the paper's caching-off measurements.
    cache_mode:
        ``"lru"`` (default) or ``"slru"``; see :class:`BlockCache`.
    backend:
        Payload residency layer; a fresh :class:`MemoryBackend` when
        omitted (the historical in-memory behaviour, byte-identical I/O
        counts included).
    """

    def __init__(
        self,
        config: BoxConfig,
        stats: IOStats | None = None,
        cache_capacity: int = 0,
        cache_mode: str = "lru",
        backend: StorageBackend | None = None,
    ) -> None:
        self.config = config
        self.stats = stats if stats is not None else IOStats()
        self.backend = backend if backend is not None else MemoryBackend()
        # One scratch buffer per thread: operation scopes are a per-caller
        # measurement device, and concurrent latched readers must not share
        # (or flush) each other's read sets.  Single-threaded code always
        # sees the same buffer, preserving the historical semantics.
        self._buffers = _ThreadBuffer()
        self._operation = _Operation(self)
        self._durable = _Durable(self)
        self.cache = BlockCache(cache_capacity, cache_mode)
        self._cache_capacity = cache_capacity
        #: Shared/exclusive latch for concurrent direct reads (advisory;
        #: taken by the label service, never by single-threaded paths).
        self.latch = ReaderWriterLatch()

    @property
    def buffer(self) -> OperationBuffer:
        """The calling thread's operation scratch buffer."""
        return self._buffers.value

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def allocate(self, payload: Any = None) -> int:
        """Allocate a new block and return its id.

        Allocation itself is bookkeeping, not an I/O; the block is counted
        as written (once) when the current operation completes, like any
        other dirtied block.
        """
        block_id = self.backend.allocate(payload)
        self.stats.add(allocs=1)
        self._mark_dirty(block_id)
        return block_id

    def free(self, block_id: int) -> None:
        """Release a block; its id may be recycled by later allocations.

        The id is evicted from the operation buffers *and* every cache
        segment: a later allocation may recycle it for an unrelated block,
        which must not inherit the stale cache entry.
        """
        try:
            self.backend.free(block_id)
        except KeyError:
            raise BlockNotFoundError(f"block {block_id} is not allocated") from None
        self.stats.add(frees=1)
        self._buffers.value.forget(block_id)
        self.cache.evict(block_id)

    def exists(self, block_id: int) -> bool:
        """Whether ``block_id`` is currently allocated."""
        return self.backend.exists(block_id)

    def __len__(self) -> int:
        return len(self.backend)

    @property
    def block_count(self) -> int:
        """Number of currently allocated blocks."""
        return len(self.backend)

    # ------------------------------------------------------------------
    # I/O
    # ------------------------------------------------------------------

    def read(self, block_id: int) -> Any:
        """Fetch a block's payload, counting one read I/O unless the block
        is already buffered by the current operation or the LRU cache."""
        try:
            payload = self.backend.read(block_id)
        except KeyError:
            raise BlockNotFoundError(f"block {block_id} is not allocated") from None
        buffer = self._buffers.value
        if buffer.depth:
            read = buffer.read
            if block_id in read or block_id in buffer.dirty:
                return payload  # buffered within this operation: free
            read.add(block_id)
        if self._cache_capacity > 0:
            if self.cache.lookup(block_id):
                self.stats.add(cache_hits=1)
                return payload
            self.stats.add(reads=1, cache_misses=1)
            self.cache.insert(block_id)
        else:
            self.stats.add(reads=1)
        return payload

    def write(self, block_id: int, payload: Any = ...) -> None:
        """Mark a block dirty (optionally replacing its payload).

        Payloads are mutable Python objects, so the common pattern is to
        mutate the object returned by :meth:`read` and then call
        ``write(block_id)`` to record the I/O.  Within an operation each
        dirty block is counted once, at operation end; outside an operation
        every call counts one write immediately (and, on a durable backend,
        commits immediately).
        """
        try:
            if payload is not ...:
                self.backend.write(block_id, payload)
                target = payload
            else:
                target = self.backend.read(block_id)
        except KeyError:
            raise BlockNotFoundError(f"block {block_id} is not allocated") from None
        # Dirtying a block is the one event every structural mutation passes
        # through, so it doubles as the invalidation point for the payload's
        # cached prefix sums (see repro.core.kernels).  LIDF blocks are plain
        # lists and by far the most frequently written payload; skip the
        # attribute probe for them.
        if target.__class__ is not list:
            touch = getattr(target, "touch", None)
            if touch is not None:
                touch()
        self._mark_dirty(block_id)

    def peek(self, block_id: int) -> Any:
        """Read a payload *without* counting an I/O.

        For assertions, invariant checkers and test oracles only — never
        used by the data-structure code on measured paths.
        """
        try:
            return self.backend.read(block_id)
        except KeyError:
            raise BlockNotFoundError(f"block {block_id} is not allocated") from None

    def block_ids(self) -> Iterator[int]:
        """All currently allocated block ids (uncounted; diagnostics only)."""
        return self.backend.block_ids()

    # ------------------------------------------------------------------
    # operation scoping
    # ------------------------------------------------------------------

    def operation(self) -> "_Operation":
        """Scope one logical operation.

        Within the context, repeated reads of the same block are free and
        each dirtied block costs exactly one write.  Contexts nest, and a
        nested one only bumps the depth; buffers flush (and, on a durable
        backend, commit) when the outermost context exits.  Yields the
        shared stats object so callers can snapshot around the context.

        When a trace is being recorded on this thread, the outermost
        scope becomes a ``store.operation`` span annotated with the
        counted I/O delta; nested scopes add nothing (they are not
        commit points).
        """
        return self._operation

    def durable(self) -> "_Durable":
        """Scope one durable commit around any number of operations.

        Operations that close inside it still flush — each one's writes
        are counted when it ends, so per-operation costs do not change —
        but their dirty blocks join one pending set instead of committing.
        Contexts nest; the outermost exit commits the set as one backend
        transaction with its tape, also when an exception is in flight, so
        what the structure holds in memory is what the backend holds once
        the scope has closed.  Nothing is committed when no block was
        dirtied and every batch ended ok; a failed batch is committed even
        so — it may have changed the scheme's scalars (its clock) without
        a block, and the backend logs it only then.  A commit that raises
        leaves the set pending, for the next scope to commit without a
        tape: a checkpoint may restate it first, and a re-run of a tape
        the state already holds would diverge.
        """
        return self._durable

    def taped(self, row: Callable[[str], bytes]) -> "_Taped":
        """Scope one batch of the enclosing :meth:`durable` scope: what it
        dirties is re-created by re-running it, so on exit ``row`` — which
        encodes the batch as a tape row, told how it ended — joins the
        scope's tape with that outcome (``""``, or the class name of the
        :data:`REPLAYABLE_ERRORS` one leaving the scope), for the backend
        to call at commit.  Any other exception, or a block dirtied under
        the durable scope but outside every taped one, leaves the commit
        without a tape."""
        return _Taped(self, row)

    def measured(self) -> "_Measured":
        """Like :meth:`operation` but the context value reports the cost of
        just this operation once it exits::

            with store.measured() as cost:
                ...do work...
            print(cost.reads, cost.writes)
        """
        return _Measured(self)

    @property
    def in_operation(self) -> bool:
        """Whether an operation context is currently open."""
        return self._buffers.value.depth > 0

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _mark_dirty(self, block_id: int) -> None:
        buffer = self._buffers.value
        if buffer.depth > 0:
            buffer.dirty.add(block_id)
        else:
            self.stats.add(writes=1)
            self.cache.insert(block_id)
            if buffer.durable > 0:
                buffer.pending.add(block_id)
                if not buffer.taping:
                    buffer.tape = None
            else:
                self._commit((block_id,), None)

    def _flush(self, buffer: OperationBuffer) -> None:
        dirty = buffer.dirty
        if dirty:
            self.stats.add(writes=len(dirty))
            for block_id in dirty:
                self.cache.insert(block_id)
            # Read-only operations skip the backend entirely: they change
            # nothing durable, so they are not commit points.
            if buffer.durable > 0:
                buffer.pending |= dirty
                if not buffer.taping:
                    buffer.tape = None
            else:
                self._commit(dirty, None)
        buffer.read.clear()
        dirty.clear()

    def _commit(self, dirty: Any, tape: Tape) -> None:
        # `commit.blocks`, not `io.writes`: the io.* keys live only on
        # store.operation spans so subtree sums match IOStats exactly.
        with trace.span("store.commit") as span:
            if span.recording:
                span.add("commit.blocks", len(dirty))
            self.backend.commit(dirty, tape)


def _counted(stats: IOStats) -> tuple[int, int]:
    """Counted reads and writes, read together under the stats lock: what
    :meth:`IOStats.snapshot` reads, without building a cost at each end of
    every scope."""
    with stats._lock:
        return stats.reads, stats.writes


# A scope runs per operation, so each is a slotted class whose enter and exit
# cost a few attribute operations.  An open scope's state is the calling
# thread's OperationBuffer: one _Operation and one _Durable serve every call.


class _Operation:
    """:meth:`BlockStore.operation`."""

    __slots__ = ("_store",)

    def __init__(self, store: BlockStore) -> None:
        self._store = store

    def __enter__(self) -> IOStats:
        store = self._store
        buffer = store._buffers.value
        if buffer.depth:
            buffer.depth += 1
            return store.stats
        buffer.scope = scope = trace.span("store.operation")
        span = scope.__enter__()
        buffer.traced = (span, *_counted(store.stats)) if span.recording else None
        buffer.depth = 1
        return store.stats

    def __exit__(self, *exc_info: object) -> None:
        store = self._store
        buffer = store._buffers.value
        buffer.depth -= 1
        if buffer.depth:
            return
        scope = buffer.scope
        try:
            store._flush(buffer)
            if buffer.traced is not None:
                span, reads, writes = buffer.traced
                now_reads, now_writes = _counted(store.stats)
                span.add("io.reads", now_reads - reads)
                span.add("io.writes", now_writes - writes)
        finally:
            scope.__exit__(*exc_info)


class _Durable:
    """:meth:`BlockStore.durable`."""

    __slots__ = ("_store",)

    def __init__(self, store: BlockStore) -> None:
        self._store = store

    def __enter__(self) -> None:
        self._store._buffers.value.durable += 1

    def __exit__(self, *exc_info: object) -> None:
        store = self._store
        buffer = store._buffers.value
        buffer.durable -= 1
        if buffer.durable:
            return
        tape = buffer.tape
        if buffer.pending or tape is None or any(ended for _row, ended in tape):
            try:
                store._commit(buffer.pending, tape)
            except BaseException:
                buffer.tape = None
                raise
            buffer.pending.clear()
        buffer.tape = []


class _Taped:
    """:meth:`BlockStore.taped`: the outermost batch re-runs the rest."""

    __slots__ = ("_store", "_row")

    def __init__(self, store: BlockStore, row: Callable[[str], bytes]) -> None:
        self._store = store
        self._row = row

    def __enter__(self) -> None:
        self._store._buffers.value.taping += 1

    def __exit__(self, kind: type[BaseException] | None, *_: object) -> None:
        buffer = self._store._buffers.value
        buffer.taping -= 1
        if kind is not None and not issubclass(kind, REPLAYABLE_ERRORS):
            buffer.tape = None
        elif not buffer.taping and buffer.tape is not None:
            buffer.tape.append((self._row, "" if kind is None else kind.__name__))


class _Measured:
    """:meth:`BlockStore.measured`: an :meth:`BlockStore.operation` that
    keeps its own I/O delta."""

    __slots__ = ("_store", "_before", "_cost")

    def __init__(self, store: BlockStore) -> None:
        self._store = store
        self._cost: OperationCost | None = None

    def __enter__(self) -> "_Measured":
        store = self._store
        store._operation.__enter__()
        self._before = _counted(store.stats)
        return self

    def __exit__(self, *exc_info: object) -> None:
        store = self._store
        store._operation.__exit__(*exc_info)
        reads, writes = _counted(store.stats)
        before_reads, before_writes = self._before
        self._cost = OperationCost(reads - before_reads, writes - before_writes)

    @property
    def cost(self) -> OperationCost:
        """The operation's cost; valid only after the context exits."""
        if self._cost is None:
            raise StorageError("operation cost is available only after the context exits")
        return self._cost

    @property
    def reads(self) -> int:
        return self.cost.reads

    @property
    def writes(self) -> int:
        return self.cost.writes

    @property
    def total(self) -> int:
        return self.cost.total
