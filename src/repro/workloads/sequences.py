"""The workload layer: insertion tapes, one tape runner, one stress driver.

**Sequences are tapes.**  The three insertion sequences of Section 7 (and
the churn stream its deletion analysis speaks to) are each a list of
:class:`~repro.core.batch.BatchOp` items whose anchors are concrete LIDs of
the bulk-loaded base document or :class:`~repro.core.batch.BatchRef` links
to earlier inserts:

* **Concentrated** — bulk load a two-level document, then insert a two-level
  subtree one element at a time, each pair of insertions "squeezed" into the
  center of the growing sibling list.  This is the adversary that breaks the
  naive scheme and stresses every labeling scheme's worst case.
* **Scattered** — the contrast case: the same number of inserts spread
  evenly across the base document.
* **XMark build** — an XMark-shaped document built element-at-a-time in
  document order of start tags (end labels are inserted together with start
  labels, without knowing subtree sizes in advance — this is *not* the same
  as bulk loading).  Measurements start after a priming prefix.

:func:`run_tape` executes a tape through ``scheme.execute_batch`` and
records the block I/O of every commit group.  The paper's unit — I/Os per
element insertion — is the tape at ``group_size=1``; a larger group size is
the same measurement amortised over groups, where blocks revisited inside a
group are read and written once.  On a file backend the whole tape is one
durable commit.

**One stress driver.**  :func:`run_stress` loads a live
:class:`~repro.service.ShardedLabelService` (N >= 1 shards) with closed-loop
reader threads beside one write client per shard.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Iterator, Sequence

from ..core.batch import BatchOp, BatchRef, BatchResult
from ..core.interface import LabelingScheme
from ..service.sharded import ShardedLabelService, bulk_load_sharded
from ..service.stats import ServiceCounters, ServiceStats
from ..xml.model import Element
from ..xml.xmark import xmark_document


@dataclass
class WorkloadResult:
    """Block I/O of one scheme on one tape, one cost per commit group."""

    scheme: str
    workload: str
    #: Maximum ops per commit group; 1 = one-by-one execution, where
    #: ``costs`` is the per-element-operation list of the paper's figures.
    group_size: int = 1
    #: Total block I/Os of each measured commit group, in order.
    costs: list[int] = field(default_factory=list)
    #: The measured groups' results, per-group read/write costs and sizes
    #: (groups of a priming prefix are left out, like their ``costs``).
    batch: BatchResult = field(default_factory=BatchResult)
    #: I/Os spent on the initial bulk load (not part of ``costs``).
    bulk_load_io: int = 0
    #: Labels present after the run.
    final_labels: int = 0
    #: Wall-clock time of the whole tape (not the bulk load).
    wall_seconds: float = 0.0

    @property
    def op_count(self) -> int:
        return self.batch.op_count

    @property
    def group_count(self) -> int:
        return len(self.costs)

    @property
    def total(self) -> int:
        return sum(self.costs)

    @property
    def mean(self) -> float:
        """Amortized I/O per element operation."""
        return self.total / self.op_count if self.op_count else 0.0


def two_level_pairing(n_children: int) -> list[int]:
    """Tag pairing for a two-level document with ``n_children`` children:
    tags are ``root_start, (c_start, c_end) * n, root_end``."""
    n_tags = 2 * (n_children + 1)
    pairing = [0] * n_tags
    pairing[0] = n_tags - 1
    pairing[n_tags - 1] = 0
    for child in range(n_children):
        start = 1 + 2 * child
        pairing[start] = start + 1
        pairing[start + 1] = start
    return pairing


def _bulk_load_two_level(scheme: LabelingScheme, n_children: int) -> list[int]:
    return scheme.bulk_load(2 * (n_children + 1), two_level_pairing(n_children))


def _measured_bulk_load(scheme: LabelingScheme, n_children: int) -> tuple[list[int], int]:
    """Bulk load the two-level base document -> (its LIDs, the I/Os spent)."""
    before = scheme.stats.snapshot()
    lids = _bulk_load_two_level(scheme, n_children)
    return lids, (scheme.stats.snapshot() - before).total


def concentrated_tape(lids: Sequence[int], insert_elements: int) -> list[BatchOp]:
    """The concentrated (adversarial) sequence over a two-level document.

    Every insert goes immediately before the anchor: op 0 anchors on the
    root's end tag, later ops on op 0's end LID until an even-indexed op's
    start LID takes over, so consecutive pairs squeeze into the center of
    a new subtree under the root.
    """
    ops = [BatchOp("insert_element_before", (lids[-1],))]
    anchor = BatchRef(0, 1)
    for index in range(1, insert_elements):
        ops.append(BatchOp("insert_element_before", (anchor,)))
        if index % 2 == 0:
            anchor = BatchRef(index, 0)
    return ops


def scattered_tape(
    lids: Sequence[int], base_elements: int, insert_elements: int
) -> list[BatchOp]:
    """The scattered sequence: each new element becomes a previous sibling
    of an evenly spaced existing child of the two-level document."""
    if insert_elements > base_elements:
        raise ValueError("scattered inserts must not outnumber base children")
    step = base_elements / insert_elements
    return [
        BatchOp("insert_element_before", (lids[1 + 2 * int(index * step)],))
        for index in range(insert_elements)
    ]


def xmark_tape(root_lids: Sequence[int], document: Element) -> list[BatchOp]:
    """The element-at-a-time build of ``document`` under a loaded root.

    Elements are added in document order of their start tags: each is
    appended as the (current) last child of its parent, i.e. inserted
    immediately before the parent's end tag — a
    :class:`~repro.core.batch.BatchRef` to the insert that created the
    parent, or the root's end LID.
    """
    end_refs: dict[Element, Any] = {document: root_lids[1]}
    ops: list[BatchOp] = []
    # pre-order = document order of start tags; the root is already loaded
    for position, element in enumerate(list(document.iter())[1:]):
        ops.append(BatchOp("insert_element_before", (end_refs[element.parent],)))
        end_refs[element] = BatchRef(position, 1)
    return ops


def churn_tape(
    lids: Sequence[int],
    base_elements: int,
    operations: int,
    delete_fraction: float = 0.5,
    seed: int = 1,
) -> list[BatchOp]:
    """A mixed insert/delete stream over a two-level base document:
    inserts create a new element before a random live element; deletes
    remove a random previously-inserted (by ref) or base element."""
    if not 0 <= delete_fraction < 1:
        raise ValueError("delete_fraction must be in [0, 1)")
    rng = random.Random(seed)
    # Live elements as (start, end) LIDs or refs; children of the base doc.
    elements: list[tuple[Any, Any]] = [
        (lids[1 + 2 * i], lids[2 + 2 * i]) for i in range(base_elements)
    ]
    ops: list[BatchOp] = []
    for position in range(operations):
        if rng.random() < delete_fraction and len(elements) > base_elements // 4:
            ops.append(
                BatchOp("delete_element", elements.pop(rng.randrange(len(elements))))
            )
        else:
            anchor_start, _ = elements[rng.randrange(len(elements))]
            ops.append(BatchOp("insert_element_before", (anchor_start,)))
            elements.append((BatchRef(position, 0), BatchRef(position, 1)))
    return ops


def run_tape(
    scheme: LabelingScheme,
    workload: str,
    ops: Sequence[BatchOp],
    group_size: int = 1,
    measure_from: int = 0,
    bulk_load_io: int = 0,
) -> WorkloadResult:
    """Execute ``ops`` on ``scheme`` in commit groups of at most
    ``group_size`` and record each group's block I/O.

    Groups that start before tape position ``measure_from`` prime the
    structure: they run, but are left out of the result.
    """
    started = time.perf_counter()
    run = scheme.execute_batch(ops, group_size=group_size)
    wall_seconds = time.perf_counter() - started
    primed_groups = primed_ops = 0
    while primed_ops < measure_from and primed_groups < run.group_count:
        primed_ops += run.group_sizes[primed_groups]
        primed_groups += 1
    batch = BatchResult(
        results=run.results[primed_ops:],
        group_costs=run.group_costs[primed_groups:],
        group_sizes=run.group_sizes[primed_groups:],
        backend_commits=run.backend_commits,
    )
    return WorkloadResult(
        scheme=scheme.name,
        workload=workload,
        group_size=group_size,
        costs=[cost.total for cost in batch.group_costs],
        batch=batch,
        bulk_load_io=bulk_load_io,
        final_labels=scheme.label_count(),
        wall_seconds=wall_seconds,
    )


def run_concentrated(
    scheme: LabelingScheme, base_elements: int, insert_elements: int, group_size: int = 1
) -> WorkloadResult:
    """The concentrated sequence on a fresh ``scheme``.

    ``base_elements`` counts the two-level base document's child elements;
    ``insert_elements`` elements are then squeezed pairwise into the center
    of a new subtree under the root (:func:`concentrated_tape`).
    """
    lids, bulk_load_io = _measured_bulk_load(scheme, base_elements)
    tape = concentrated_tape(lids, insert_elements)
    return run_tape(scheme, "concentrated", tape, group_size, bulk_load_io=bulk_load_io)


def run_scattered(
    scheme: LabelingScheme, base_elements: int, insert_elements: int, group_size: int = 1
) -> WorkloadResult:
    """The scattered sequence on a fresh ``scheme`` (:func:`scattered_tape`).

    Anchors are spread across the base document, so locality grouping cuts
    commit groups early and a larger ``group_size`` saves little — the
    contrast case to :func:`run_concentrated`.
    """
    lids, bulk_load_io = _measured_bulk_load(scheme, base_elements)
    tape = scattered_tape(lids, base_elements, insert_elements)
    return run_tape(scheme, "scattered", tape, group_size, bulk_load_io=bulk_load_io)


def run_xmark_build(
    scheme: LabelingScheme,
    n_items: int,
    prime_fraction: float = 0.6,
    seed: int = 1,
    document: Element | None = None,
    group_size: int = 1,
) -> WorkloadResult:
    """Build an XMark-shaped document element-at-a-time (:func:`xmark_tape`).

    The root seeds the structure (bulk load of its two tags).  The first
    ``prime_fraction`` of insertions "prime" the structures and are not
    measured, mirroring the paper (it measures after the first 200,000 of
    336,242 elements); a commit group that starts inside the priming
    prefix is dropped whole.
    """
    if not 0 <= prime_fraction < 1:
        raise ValueError("prime_fraction must be in [0, 1)")
    root = document if document is not None else xmark_document(n_items, seed=seed)
    tape = xmark_tape(scheme.bulk_load(2, [1, 0]), root)
    # Element ``index`` (the root is 0) is tape position ``index - 1``.
    prime_count = int((len(tape) + 1) * prime_fraction)
    return run_tape(scheme, "xmark", tape, group_size, measure_from=prime_count - 1)


#: Probabilities of ``lookup``, ``lookup_pair`` and ``compare`` in a
#: :func:`read_op_stream`.
READ_MIX = (0.6, 0.25, 0.15)


def read_op_stream(
    chunks: Sequence[Sequence[int]],
    n_ops: int,
    seed: int = 1,
) -> Iterator[tuple]:
    """Generate a reader op stream over a fixed LID population.

    ``chunks`` holds one LID list per shard, each in document order.  Yields
    ``(method, *lids)`` tuples naming a reader-session method — ``lookup``,
    ``lookup_pair`` or ``compare`` — with the probabilities of
    :data:`READ_MIX`.  A
    pair is two adjacent tags of one chunk, so it never spans shards; a
    compare may.  Deterministic per seed, so concurrent readers can each
    run their own seeded stream.
    """
    rng = random.Random(seed)
    lookup_w, pair_w, _compare_w = READ_MIX
    for _ in range(n_ops):
        roll = rng.random()
        chunk = rng.choice(chunks)
        if roll < lookup_w or len(chunk) < 2:
            yield ("lookup", rng.choice(chunk))
        elif roll < lookup_w + pair_w:
            first = 2 * rng.randrange(len(chunk) // 2)
            yield ("lookup_pair", chunk[first], chunk[first + 1])
        else:
            yield ("compare", rng.choice(chunk), rng.choice(rng.choice(chunks)))


def concentrated_edit_batches(
    anchor_lid: int,
    n_batches: int,
    batch_size: int,
):
    """Writer-side stream for the service: batches of concentrated inserts.

    Each batch squeezes ``batch_size`` element insertions before
    ``anchor_lid`` — the paper's adversarial pattern, expressed as the
    :class:`~repro.core.batch.BatchOp` lists a service client would submit.
    Later elements anchor on earlier ones through BatchRefs within each
    batch; across batches all inserts share the original anchor, keeping
    the write window concentrated on the same few blocks.
    """
    for _ in range(n_batches):
        ops = [BatchOp("insert_element_before", (anchor_lid,))]
        for index in range(1, batch_size):
            ops.append(BatchOp("insert_element_before", (BatchRef(index - 1, 0),)))
        yield ops


def churn_edit_batches(
    anchor_lid: int,
    n_batches: int,
    batch_size: int,
):
    """Steady-state writer stream: each batch inserts ``batch_size``
    elements before ``anchor_lid`` and then deletes those same elements
    (via BatchRefs), so the structure's live size never grows.

    After one priming batch, every insert reclaims a ghost slot left by
    the previous batch's deletes — no node splits, so the scheme emits
    only :class:`RangeShift` effects and log replay repairs every cached
    ref.  This is the regime where a warmed reader never falls through.
    """
    for _ in range(n_batches):
        ops = [BatchOp("insert_element_before", (anchor_lid,)) for _ in range(batch_size)]
        ops.extend(
            BatchOp("delete_element", (BatchRef(i, 0), BatchRef(i, 1)))
            for i in range(batch_size)
        )
        yield ops


#: ``write_mode`` -> the writer stream a stress write client submits.
EDIT_STREAMS = {"insert": concentrated_edit_batches, "churn": churn_edit_batches}

#: Reads a stress reader serves between re-pins of its session.
REFRESH_EVERY = 32


@dataclass
class StressResult:
    """Outcome of one :func:`run_stress` run."""

    scheme: str
    readers: int
    wall_seconds: float
    read_ops: int
    #: Element operations the write clients submitted, per shard.
    write_ops: list[int]
    #: Final :class:`~repro.service.stats.ServiceCounters`, per shard.
    counters: list[ServiceCounters]
    #: The epoch vector at the end of the run (every shard starts at 0).
    epoch_numbers: tuple[int, ...]
    #: Exceptions that ended a reader or write-client thread.
    errors: list = field(default_factory=list)

    @property
    def shards(self) -> int:
        return len(self.counters)

    @property
    def reads_per_second(self) -> float:
        return self.read_ops / self.wall_seconds if self.wall_seconds else 0.0

    @property
    def writes_per_second(self) -> float:
        return sum(self.write_ops) / self.wall_seconds if self.wall_seconds else 0.0

    @property
    def totals(self) -> ServiceCounters:
        """The shards' counters summed (``max_epoch_lag``: their maximum)."""
        return ServiceStats.combine(self.counters)


def run_stress(
    schemes: Sequence[LabelingScheme],
    base_labels: int = 1000,
    readers: int = 4,
    duration: float = 2.0,
    write_batch: int = 16,
    group_size: int = 16,
    log_capacity: int = 4096,
    think_seconds: float = 0.0002,
    write_pause: float = 0.002,
    write_mode: str = "insert",
    hot_labels: int | None = None,
    seed: int = 1,
) -> StressResult:
    """Drive a :class:`~repro.service.ShardedLabelService` over ``schemes``
    (freshly built; one shard each) with concurrent load for ``duration``
    seconds.

    ``base_labels`` labels are bulk-loaded as contiguous chunks
    (:func:`~repro.service.sharded.bulk_load_sharded`).  ``readers``
    closed-loop reader threads each run a seeded :func:`read_op_stream`
    against their own pinned session, re-pinning every
    :data:`REFRESH_EVERY` ops, with ``think_seconds`` of client think time
    between ops.  Each reader touches every LID it will read once before
    the timed loop, so measured reads run from warmed caches.

    One write client per shard feeds batches of ``write_batch`` element
    operations at the last label of its shard's chunk for the whole
    duration, pausing ``write_pause`` between submissions and never waiting
    on a ticket: the short bounded queue pushes back instead (backpressure
    is part of the load), and every batch queued when the shard's writer
    wakes shares that wake-up's one commit.

    ``write_mode`` picks the writer stream: ``"insert"`` grows the
    document with :func:`concentrated_edit_batches` (splits and range
    invalidations happen, so some reads fall through); ``"churn"`` uses
    :func:`churn_edit_batches` (steady-state, shift-only effects — while
    the modification log covers the write window no warmed read falls
    through).  ``hot_labels`` restricts reads to the first N labels of
    every chunk, modelling a hot working set small enough that the log
    always covers the gap between re-reads.
    """
    if write_mode not in EDIT_STREAMS:
        raise ValueError(f"unknown write_mode: {write_mode!r}")
    glids = bulk_load_sharded(schemes, base_labels)
    service = ShardedLabelService(
        schemes,
        log_capacity=log_capacity,
        group_size=group_size,
        queue_capacity=8,
    )
    chunks: list[list[int]] = [[] for _ in schemes]
    for glid in glids:
        chunks[service.router.shard_of(glid)].append(glid)
    if not all(chunks):
        raise ValueError(f"{base_labels} base labels leave a shard of {len(chunks)} empty")
    read_chunks = [chunk[:hot_labels] if hot_labels else chunk for chunk in chunks]
    streams = [EDIT_STREAMS[write_mode](chunk[-1], 10**9, write_batch) for chunk in chunks]
    stop_flag = threading.Event()
    # Readers warm up, then every thread meets here; the clock starts and
    # the counters reset only after the barrier, so warmup fallthroughs
    # don't pollute the measured window.
    barrier = threading.Barrier(readers + len(schemes) + 1)
    read_counts = [0] * readers
    write_counts = [0] * len(schemes)
    errors: list = []

    def reader(index: int) -> None:
        session = service.session()
        count = 0
        try:
            for chunk in read_chunks:
                for lid in chunk:
                    session.lookup(lid)
            barrier.wait(timeout=60)
            for method, *lids in read_op_stream(read_chunks, 10**12, seed + index):
                if stop_flag.is_set():
                    break
                if count % REFRESH_EVERY == 0:
                    session.refresh()
                getattr(session, method)(*lids)
                count += 1
                if think_seconds:
                    time.sleep(think_seconds)
        except Exception as error:  # surfaced to the caller, fails the run
            errors.append(error)
        finally:
            read_counts[index] = count

    def write_client(shard: int) -> None:
        try:
            barrier.wait(timeout=60)
            while not stop_flag.is_set():
                batch = next(streams[shard])
                service.submit_ops(batch, timeout=max(duration, 10.0))
                write_counts[shard] += len(batch)
                if write_pause:
                    time.sleep(write_pause)
        except Exception as error:  # surfaced to the caller, fails the run
            errors.append(error)

    threads = [
        threading.Thread(target=target, args=(i,), name=f"stress-{target.__name__}", daemon=True)
        for target, count in ((reader, readers), (write_client, len(schemes)))
        for i in range(count)
    ]
    with service:
        if write_mode == "churn":
            # Priming batch: grows leaf weights once so every later insert
            # reclaims a ghost — no splits inside the measured window.
            for stream in streams:
                service.submit_ops(next(stream), timeout=60).wait(timeout=60)
        for thread in threads:
            thread.start()
        try:
            barrier.wait(timeout=60)
            for shard in service.shards:
                shard.stats.reset()
            started = time.perf_counter()
            stop_flag.wait(duration)
        finally:
            stop_flag.set()
            for thread in threads:
                thread.join(timeout=30)
        wall = time.perf_counter() - started
    # The service is closed: every queued batch has been applied or failed.
    if any(thread.is_alive() for thread in threads):
        errors.append(RuntimeError("stress thread failed to stop"))
    return StressResult(
        scheme=schemes[0].name,
        readers=readers,
        wall_seconds=wall,
        read_ops=sum(read_counts),
        write_ops=write_counts,
        counters=[shard.stats.snapshot() for shard in service.shards],
        epoch_numbers=service.current_epoch_vector.numbers,
        errors=errors,
    )


#: Every this-many-th step of a crash-recovery tape is a checkpoint.
TAPE_CHECKPOINT_EVERY = 8


def crash_recovery_tape(
    n_ops: int, seed: int = 0, delete_fraction: float = 0.15
) -> list[tuple[str, int]]:
    """A deterministic mixed insert/delete tape for crash-recovery sweeps.

    Each step is ``("insert_before", draw)`` or ``("delete", draw)`` where
    ``draw`` indexes the *current* live-LID list modulo its length — the
    tape is independent of concrete LID values, so the same tape replays
    identically on a file-backed scheme and on its memory-backed twin
    oracle (:func:`apply_tape_step` is the one shared interpreter) — or,
    every :data:`TAPE_CHECKPOINT_EVERY`-th step, ``("checkpoint", 0)``:
    a commit writes only the log, so page, directory and truncate writes
    (and the crash windows around them) happen here.  Same
    ``(n_ops, seed)``, same tape, every run: the chaos sweep's determinism
    rests on this.
    """
    rng = random.Random(seed)
    steps: list[tuple[str, int]] = []
    for index in range(n_ops):
        kind = "delete" if rng.random() < delete_fraction else "insert_before"
        draw = rng.randrange(1 << 20)
        if index % TAPE_CHECKPOINT_EVERY == TAPE_CHECKPOINT_EVERY - 1:
            kind, draw = "checkpoint", 0
        steps.append((kind, draw))
    return steps


def apply_tape_step(target: Any, lids: list[int], step: tuple[str, int]) -> None:
    """Interpret one :func:`crash_recovery_tape` step against ``target``,
    keeping ``lids`` (the live-LID list, mutated in place) in sync.

    ``target`` is a scheme, or anything else with ``insert_before(lid) ->
    lid`` and ``delete(lid)`` over the LIDs in ``lids``: the chaos
    driver's live service and its twin (the one interpreter for both).  A
    scheme runs each edit as a one-op batch, so on a page file it commits
    as one logged tape, as the service's edits do.  Deletes are demoted to
    inserts while the live population is small, so a delete-heavy seed can
    never drain the structure.  A checkpoint step calls
    ``target.checkpoint()`` where there is one and changes no label (a
    no-op on a memory twin).
    """
    kind, draw = step
    run = getattr(target, "execute_batch", None)
    if kind == "checkpoint":
        getattr(target, "checkpoint", lambda: None)()
    elif kind == "delete" and len(lids) > 12:
        lid = lids.pop(draw % len(lids))
        target.delete(lid) if run is None else run([BatchOp("delete", (lid,))])
    else:
        anchor = lids[draw % len(lids)]
        lids.append(
            target.insert_before(anchor)
            if run is None
            else run([BatchOp("insert_before", (anchor,))]).results[0]
        )
