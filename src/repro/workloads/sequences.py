"""The three insertion sequences of Section 7.

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

Each runner drives a fresh scheme and records the I/O cost of every element
insertion (two label insertions, as in the paper's figures).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Sequence

from ..core.batch import BatchOp, BatchRef, BatchResult
from ..core.document import tag_pairing
from ..core.interface import LabelingScheme
from ..xml.model import Element, Tag, TagKind, document_tags
from ..xml.xmark import xmark_document


@dataclass
class WorkloadResult:
    """Per-element-insertion I/O costs for one scheme on one workload."""

    scheme: str
    workload: str
    costs: list[int] = field(default_factory=list)
    #: I/Os spent on the initial bulk load (not part of ``costs``).
    bulk_load_io: int = 0
    #: Labels present after the run.
    final_labels: int = 0
    #: Wall-clock time of the measured insertions (not the bulk load).
    wall_seconds: float = 0.0

    @property
    def total(self) -> int:
        return sum(self.costs)

    @property
    def mean(self) -> float:
        return self.total / len(self.costs) if self.costs else 0.0


@dataclass
class BatchedWorkloadResult:
    """One scheme on one workload, executed through the batch engine."""

    scheme: str
    workload: str
    group_size: int
    batch: BatchResult
    #: I/Os spent on the initial bulk load (not part of the batch cost).
    bulk_load_io: int = 0
    final_labels: int = 0
    wall_seconds: float = 0.0

    @property
    def op_count(self) -> int:
        return self.batch.op_count

    @property
    def group_count(self) -> int:
        return self.batch.group_count

    @property
    def total(self) -> int:
        return self.batch.total_cost.total

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


def run_concentrated(
    scheme: LabelingScheme, base_elements: int, insert_elements: int
) -> WorkloadResult:
    """The concentrated (adversarial) insertion sequence.

    ``base_elements`` counts the two-level base document's child elements;
    ``insert_elements`` elements are then squeezed pairwise into the center
    of a new subtree under the root.
    """
    result = WorkloadResult(scheme.name, "concentrated")
    before = scheme.stats.snapshot()
    lids = _bulk_load_two_level(scheme, base_elements)
    result.bulk_load_io = (scheme.stats.snapshot() - before).total

    root_end = lids[-1]
    started = time.perf_counter()
    with scheme.store.measured() as op:
        _, subtree_end = scheme.insert_element_before(root_end)
    result.costs.append(op.total)
    # Every insert goes immediately before the anchor; a right-side element
    # becomes the new anchor, so consecutive pairs squeeze into the center.
    anchor = subtree_end
    for index in range(1, insert_elements):
        with scheme.store.measured() as op:
            start_lid, _ = scheme.insert_element_before(anchor)
        result.costs.append(op.total)
        if index % 2 == 0:
            anchor = start_lid
    result.wall_seconds = time.perf_counter() - started
    result.final_labels = scheme.label_count()
    return result


def run_concentrated_batched(
    scheme: LabelingScheme,
    base_elements: int,
    insert_elements: int,
    group_size: int = 64,
    locality_grouping: bool = True,
) -> BatchedWorkloadResult:
    """The concentrated sequence executed through the batch engine.

    Builds exactly the structure :func:`run_concentrated` builds — each
    insert's anchor is a result of an earlier insert, expressed as a
    :class:`~repro.core.batch.BatchRef` — but ops commit in groups, so
    blocks revisited inside a group are read and written once per group
    instead of once per op.
    """
    result = BatchedWorkloadResult(scheme.name, "concentrated", group_size, BatchResult())
    before = scheme.stats.snapshot()
    lids = _bulk_load_two_level(scheme, base_elements)
    result.bulk_load_io = (scheme.stats.snapshot() - before).total

    # Mirrors the sequential anchor chain: op 0 anchors on the root's end
    # tag; later ops anchor on op 0's end LID until an even-indexed op's
    # start LID takes over.
    ops = [BatchOp("insert_element_before", (lids[-1],))]
    anchor: object = BatchRef(0, 1)
    for index in range(1, insert_elements):
        ops.append(BatchOp("insert_element_before", (anchor,)))
        if index % 2 == 0:
            anchor = BatchRef(index, 0)
    started = time.perf_counter()
    result.batch = scheme.execute_batch(
        ops, group_size=group_size, locality_grouping=locality_grouping
    )
    result.wall_seconds = time.perf_counter() - started
    result.final_labels = scheme.label_count()
    return result


def run_scattered(
    scheme: LabelingScheme, base_elements: int, insert_elements: int
) -> WorkloadResult:
    """The scattered insertion sequence: inserts spread evenly over the
    base document's children (each new element becomes a previous sibling
    of an evenly spaced existing child)."""
    if insert_elements > base_elements:
        raise ValueError("scattered inserts must not outnumber base children")
    result = WorkloadResult(scheme.name, "scattered")
    before = scheme.stats.snapshot()
    lids = _bulk_load_two_level(scheme, base_elements)
    result.bulk_load_io = (scheme.stats.snapshot() - before).total

    step = base_elements / insert_elements
    started = time.perf_counter()
    for index in range(insert_elements):
        child = int(index * step)
        child_start = lids[1 + 2 * child]
        with scheme.store.measured() as op:
            scheme.insert_element_before(child_start)
        result.costs.append(op.total)
    result.wall_seconds = time.perf_counter() - started
    result.final_labels = scheme.label_count()
    return result


def run_scattered_batched(
    scheme: LabelingScheme,
    base_elements: int,
    insert_elements: int,
    group_size: int = 64,
    locality_grouping: bool = True,
) -> BatchedWorkloadResult:
    """The scattered sequence executed through the batch engine.

    Anchors are spread across the base document, so locality grouping cuts
    groups early and batching saves little — the contrast case to
    :func:`run_concentrated_batched`.
    """
    if insert_elements > base_elements:
        raise ValueError("scattered inserts must not outnumber base children")
    result = BatchedWorkloadResult(scheme.name, "scattered", group_size, BatchResult())
    before = scheme.stats.snapshot()
    lids = _bulk_load_two_level(scheme, base_elements)
    result.bulk_load_io = (scheme.stats.snapshot() - before).total

    step = base_elements / insert_elements
    ops = [
        BatchOp("insert_element_before", (lids[1 + 2 * int(index * step)],))
        for index in range(insert_elements)
    ]
    started = time.perf_counter()
    result.batch = scheme.execute_batch(
        ops, group_size=group_size, locality_grouping=locality_grouping
    )
    result.wall_seconds = time.perf_counter() - started
    result.final_labels = scheme.label_count()
    return result


def run_xmark_build(
    scheme: LabelingScheme,
    n_items: int,
    prime_fraction: float = 0.6,
    seed: int = 1,
    document: Element | None = None,
) -> WorkloadResult:
    """Build an XMark-shaped document element-at-a-time.

    Elements are added in document order of their start tags: each new
    element is appended as the (current) last child of its parent, i.e.
    inserted immediately before the parent's end tag.  The first
    ``prime_fraction`` of insertions "prime" the structures and are not
    measured, mirroring the paper (it measures after the first 200,000 of
    336,242 elements).
    """
    if not 0 <= prime_fraction < 1:
        raise ValueError("prime_fraction must be in [0, 1)")
    result = WorkloadResult(scheme.name, "xmark")
    root = document if document is not None else xmark_document(n_items, seed=seed)
    elements = list(root.iter())  # pre-order = document order of start tags
    prime_count = int(len(elements) * prime_fraction)

    # The root seeds the structure (bulk load of its two tags).
    end_lids: dict[Element, int] = {}
    root_lids = scheme.bulk_load(2, [1, 0])
    end_lids[root] = root_lids[1]
    started = time.perf_counter()
    for index, element in enumerate(elements[1:], start=1):
        parent = element.parent
        assert parent is not None
        with scheme.store.measured() as op:
            _, end_lid = scheme.insert_element_before(end_lids[parent])
        end_lids[element] = end_lid
        if index >= prime_count:
            result.costs.append(op.total)
    result.wall_seconds = time.perf_counter() - started
    result.final_labels = scheme.label_count()
    return result


def run_xmark_build_batched(
    scheme: LabelingScheme,
    n_items: int,
    group_size: int = 64,
    locality_grouping: bool = True,
    seed: int = 1,
    document: Element | None = None,
) -> BatchedWorkloadResult:
    """The XMark element-at-a-time build through the batch engine.

    Each element is appended before its parent's end tag; for parents
    created in the same batch the anchor is a
    :class:`~repro.core.batch.BatchRef` to the parent's end LID.  Unlike
    :func:`run_xmark_build`, the whole build is measured (group costs make
    a priming prefix meaningless — groups straddle it)."""
    result = BatchedWorkloadResult(scheme.name, "xmark", group_size, BatchResult())
    root = document if document is not None else xmark_document(n_items, seed=seed)
    elements = list(root.iter())  # pre-order = document order of start tags

    root_lids = scheme.bulk_load(2, [1, 0])
    end_refs: dict[Element, object] = {root: root_lids[1]}
    ops: list[BatchOp] = []
    for position, element in enumerate(elements[1:]):
        parent = element.parent
        assert parent is not None
        ops.append(BatchOp("insert_element_before", (end_refs[parent],)))
        end_refs[element] = BatchRef(position, 1)
    started = time.perf_counter()
    result.batch = scheme.execute_batch(
        ops, group_size=group_size, locality_grouping=locality_grouping
    )
    result.wall_seconds = time.perf_counter() - started
    result.final_labels = scheme.label_count()
    return result


def run_churn(
    scheme: LabelingScheme,
    base_elements: int,
    operations: int,
    delete_fraction: float = 0.5,
    seed: int = 1,
) -> WorkloadResult:
    """A mixed insert/delete stream over a two-level base document.

    Not one of the paper's three plotted sequences, but the workload its
    deletion analysis speaks to: Theorem 4.6's O(1) amortized W-BOX delete
    (global rebuilding) and Theorem 5.3's O(1) amortized mixed updates for
    B-BOX.  Each element operation's I/O is recorded (inserts create a new
    element before a random live element; deletes remove a random
    previously-inserted or base element).
    """
    import random

    if not 0 <= delete_fraction < 1:
        raise ValueError("delete_fraction must be in [0, 1)")
    result = WorkloadResult(scheme.name, "churn")
    before = scheme.stats.snapshot()
    lids = _bulk_load_two_level(scheme, base_elements)
    result.bulk_load_io = (scheme.stats.snapshot() - before).total

    rng = random.Random(seed)
    # Track elements as (start_lid, end_lid); children of the two-level doc.
    elements = [(lids[1 + 2 * i], lids[2 + 2 * i]) for i in range(base_elements)]
    started = time.perf_counter()
    for _ in range(operations):
        if rng.random() < delete_fraction and len(elements) > base_elements // 4:
            start_lid, end_lid = elements.pop(rng.randrange(len(elements)))
            with scheme.store.measured() as op:
                scheme.delete_element(start_lid, end_lid)
        else:
            anchor_start, _ = elements[rng.randrange(len(elements))]
            with scheme.store.measured() as op:
                pair = scheme.insert_element_before(anchor_start)
            elements.append(pair)
        result.costs.append(op.total)
    result.wall_seconds = time.perf_counter() - started
    result.final_labels = scheme.label_count()
    return result


def read_op_stream(
    lids: Sequence[int],
    n_ops: int,
    seed: int = 1,
    mix: tuple[float, float, float] = (0.6, 0.25, 0.15),
):
    """Generate a reader op stream over a fixed LID population.

    Yields ``("lookup", lid)``, ``("pair", start_lid, end_lid)``, or
    ``("compare", lid1, lid2)`` tuples with the given probability ``mix``.
    Pairs assume the two-level layout of :func:`two_level_pairing` (LIDs
    ``1+2i`` / ``2+2i`` are element i's start/end); deterministic per seed,
    so concurrent readers can each run their own seeded stream.
    """
    import random

    rng = random.Random(seed)
    lookup_w, pair_w, _compare_w = mix
    n_children = (len(lids) - 2) // 2
    for _ in range(n_ops):
        roll = rng.random()
        if roll < lookup_w or n_children < 1:
            yield ("lookup", lids[rng.randrange(len(lids))])
        elif roll < lookup_w + pair_w:
            child = rng.randrange(n_children)
            yield ("pair", lids[1 + 2 * child], lids[2 + 2 * child])
        else:
            yield ("compare", lids[rng.randrange(len(lids))], lids[rng.randrange(len(lids))])


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


def _start_stress_service(scheme: LabelingScheme, log_capacity: int, group_size: int):
    """A started one-shard service over ``scheme`` plus that shard's
    counters (short write queue: backpressure is part of the load)."""
    from ..service import ShardedLabelService

    service = ShardedLabelService(
        [scheme], log_capacity=log_capacity, group_size=group_size, queue_capacity=8
    )
    return service.start(), service.shards[0].stats


@dataclass
class ServiceStressResult:
    """Outcome of one concurrent service stress run."""

    scheme: str
    readers: int
    wall_seconds: float
    read_ops: int
    write_ops: int
    counters: object  #: final ServiceCounters snapshot
    reader_errors: list = field(default_factory=list)

    @property
    def reads_per_second(self) -> float:
        return self.read_ops / self.wall_seconds if self.wall_seconds else 0.0


def run_service_stress(
    scheme: LabelingScheme,
    base_elements: int = 500,
    readers: int = 4,
    duration: float = 2.0,
    write_batch: int = 16,
    group_size: int = 16,
    log_capacity: int = 4096,
    think_seconds: float = 0.0002,
    write_pause: float = 0.002,
    refresh_every: int = 32,
    warm_sessions: bool = True,
    write_mode: str = "insert",
    hot_elements: int | None = None,
    seed: int = 1,
) -> ServiceStressResult:
    """Drive a one-shard :class:`~repro.service.ShardedLabelService` with
    concurrent load.

    ``readers`` closed-loop reader threads each run a seeded
    :func:`read_op_stream` against their own pinned session, re-pinning
    every ``refresh_every`` ops, with ``think_seconds`` of client think
    time between ops (the open/closed-loop load model every service
    benchmark uses: aggregate throughput scales with connections until
    service time dominates think time).  One writer feeds concentrated
    insert batches through the bounded queue for the whole duration,
    pausing ``write_pause`` between submissions so the modification log
    keeps covering the write window (the regime where warmed reads never
    fall through).  With ``warm_sessions`` each reader touches every LID
    once before the timed loop, so measured reads run from warmed caches.

    ``write_mode`` picks the writer stream: ``"insert"`` grows the
    document with :func:`concentrated_edit_batches` (splits and range
    invalidations happen, so some reads fall through); ``"churn"`` uses
    :func:`churn_edit_batches` (steady-state, shift-only effects — the
    zero-fallthrough regime).  ``hot_elements`` restricts reads to the
    first N elements of the base document, modelling a hot working set
    small enough that the log always covers the gap between re-reads.
    """
    import threading

    if write_mode not in ("insert", "churn"):
        raise ValueError(f"unknown write_mode: {write_mode!r}")
    lids = _bulk_load_two_level(scheme, base_elements)
    if hot_elements is not None:
        read_lids = lids[: 2 + 2 * min(hot_elements, base_elements)]
    else:
        read_lids = list(lids)
    service, stats = _start_stress_service(scheme, log_capacity, group_size)
    if write_mode == "churn":
        # Priming batch: grows leaf weights once so every later insert
        # reclaims a ghost — no splits inside the measured window.
        prime = next(churn_edit_batches(lids[-1], 1, write_batch))
        service.submit_ops(prime, timeout=60).wait(timeout=60)
    stop_flag = threading.Event()
    # Readers warm up, then everyone (readers + the coordinating thread)
    # meets here; the clock starts and counters reset only after the
    # barrier, so warmup fallthroughs don't pollute the measured window.
    barrier = threading.Barrier(readers + 1)
    read_counts = [0] * readers
    errors: list = []
    write_ops = 0

    def reader(index: int) -> None:
        session = service.session()
        count = 0
        try:
            if warm_sessions:
                for lid in read_lids:
                    session.lookup(lid)
            barrier.wait(timeout=60)
            while not stop_flag.is_set():
                session.refresh()
                for op in read_op_stream(read_lids, refresh_every, seed=seed + index + count):
                    if op[0] == "lookup":
                        session.lookup(op[1])
                    elif op[0] == "pair":
                        session.lookup_pair(op[1], op[2])
                    else:
                        session.compare(op[1], op[2])
                    count += 1
                    if think_seconds:
                        time.sleep(think_seconds)
                    if stop_flag.is_set():
                        break
        except Exception as error:  # surfaced to the caller, fails the run
            errors.append(error)
        finally:
            read_counts[index] = count

    threads = [
        threading.Thread(target=reader, args=(i,), name=f"stress-reader-{i}", daemon=True)
        for i in range(readers)
    ]
    for thread in threads:
        thread.start()
    barrier.wait(timeout=60)
    stats.reset()
    started = time.perf_counter()
    deadline = started + duration
    tickets = []
    if write_mode == "churn":
        batches = churn_edit_batches(lids[-1], n_batches=10**9, batch_size=write_batch)
    else:
        batches = concentrated_edit_batches(lids[-1], n_batches=10**9, batch_size=write_batch)
    while time.perf_counter() < deadline:
        batch = next(batches)
        tickets.append(service.submit_ops(batch, timeout=max(duration, 10.0)))
        write_ops += len(batch)
        if write_pause:
            time.sleep(write_pause)
    stop_flag.set()
    for thread in threads:
        thread.join(timeout=30)
    wall = time.perf_counter() - started
    for ticket in tickets:
        ticket.wait(timeout=30)
    service.close()
    if any(thread.is_alive() for thread in threads):
        errors.append(RuntimeError("reader thread failed to stop"))
    return ServiceStressResult(
        scheme=scheme.name,
        readers=readers,
        wall_seconds=wall,
        read_ops=sum(read_counts),
        write_ops=write_ops,
        counters=stats.snapshot(),
        reader_errors=errors,
    )


@dataclass
class QueryStressResult:
    """Outcome of one mixed query-stream / writer-churn stress run."""

    scheme: str
    readers: int
    wall_seconds: float
    #: Axis streams fully evaluated across all readers.
    query_ops: int
    #: Elements yielded by those streams, summed.
    elements_streamed: int
    #: Epoch views (re)built across all readers — staleness-driven, so
    #: this tracks how often the catalog or a pin actually moved under
    #: the readers.
    views_built: int
    write_ops: int
    counters: object  #: final ServiceCounters snapshot
    reader_errors: list = field(default_factory=list)

    @property
    def queries_per_second(self) -> float:
        return self.query_ops / self.wall_seconds if self.wall_seconds else 0.0


def run_query_stress(
    scheme: LabelingScheme,
    base_elements: int = 200,
    readers: int = 4,
    duration: float = 2.0,
    write_batch: int = 8,
    group_size: int = 16,
    log_capacity: int = 4096,
    refresh_every: int = 8,
    seed: int = 1,
) -> QueryStressResult:
    """Mixed workload: axis query streams racing an element-churn writer.

    ``readers`` threads each run a :class:`~repro.query.streams.QueryEngine`
    over a shared :class:`~repro.query.streams.ElementCatalog`, evaluating
    descendant / following / ancestor(-at-depth) streams against elements
    of whatever :class:`~repro.query.streams.EpochView` their pinned
    session sees, re-pinning every ``refresh_every`` streams.  One writer
    inserts ``write_batch`` elements as last children of the root, then
    deletes them again — growing and shrinking the catalog from *acked*
    results only, so the catalog never names an uncommitted element.

    Each reader checks the view invariants the engine promises on every
    rebuild: the root's descendant stream is every other catalog element
    (document order), its following stream is empty, and every stream's
    elements come from the view it was asked of — a live-fire version of
    the "no torn results" guarantee under real concurrency.
    """
    import random
    import threading

    from ..query.streams import ElementCatalog, QueryEngine

    lids = _bulk_load_two_level(scheme, base_elements)
    root_pair = (lids[0], lids[-1])
    catalog = ElementCatalog()
    catalog.add(*root_pair)
    for child in range(base_elements):
        catalog.add(lids[1 + 2 * child], lids[2 + 2 * child])
    service, stats = _start_stress_service(scheme, log_capacity, group_size)
    stop_flag = threading.Event()
    barrier = threading.Barrier(readers + 1)
    query_counts = [0] * readers
    element_counts = [0] * readers
    view_counts = [0] * readers
    errors: list = []
    write_ops = 0

    def reader(index: int) -> None:
        session = service.session()
        engine = QueryEngine(session, catalog)
        rng = random.Random(seed + index)
        queries = elements = views = 0
        last_view = None
        try:
            barrier.wait(timeout=60)
            while not stop_flag.is_set():
                session.refresh()
                for _ in range(refresh_every):
                    view = engine.view()
                    if view is not last_view:
                        views += 1
                        last_view = view
                        # Root invariants, checked once per fresh view.
                        if len(list(view.descendants(root_pair))) != len(view) - 1:
                            raise AssertionError("root descendants miss elements")
                        if list(view.following(root_pair)):
                            raise AssertionError("root has following elements")
                    target = view.pairs[rng.randrange(len(view.pairs))]
                    axis = queries % 4
                    if axis == 0:
                        stream = view.descendants(target)
                    elif axis == 1:
                        stream = view.following(target)
                    elif axis == 2:
                        stream = view.ancestors(target)
                    else:
                        ancestor = view.ancestor_at_depth(target, 0)
                        stream = () if ancestor is None else (ancestor,)
                    for pair in stream:
                        if pair not in view._index:
                            raise AssertionError(f"stream yielded foreign pair {pair}")
                        elements += 1
                    queries += 1
                    if stop_flag.is_set():
                        break
        except Exception as error:  # surfaced to the caller, fails the run
            errors.append(error)
        finally:
            query_counts[index] = queries
            element_counts[index] = elements
            view_counts[index] = views

    threads = [
        threading.Thread(target=reader, args=(i,), name=f"query-reader-{i}", daemon=True)
        for i in range(readers)
    ]
    for thread in threads:
        thread.start()
    barrier.wait(timeout=60)
    stats.reset()
    started = time.perf_counter()
    deadline = started + duration
    timeout = max(duration, 10.0)
    while time.perf_counter() < deadline:
        insert = [BatchOp("insert_element_before", (lids[-1],)) for _ in range(write_batch)]
        inserted = service.submit_ops(insert, timeout=timeout).wait(timeout=timeout)
        for start_lid, end_lid in inserted.results:
            catalog.add(start_lid, end_lid)
        write_ops += len(insert)
        # Remove from the catalog BEFORE the delete commits: a reader
        # snapshot taken after the commit must not name a dead LID (the
        # engine retries snapshots that raced this removal).
        for start_lid, end_lid in inserted.results:
            catalog.remove(start_lid, end_lid)
        delete = [
            BatchOp("delete_element", (start_lid, end_lid))
            for start_lid, end_lid in inserted.results
        ]
        service.submit_ops(delete, timeout=timeout).wait(timeout=timeout)
        write_ops += len(delete)
    stop_flag.set()
    for thread in threads:
        thread.join(timeout=30)
    wall = time.perf_counter() - started
    service.close()
    if any(thread.is_alive() for thread in threads):
        errors.append(RuntimeError("query reader thread failed to stop"))
    return QueryStressResult(
        scheme=scheme.name,
        readers=readers,
        wall_seconds=wall,
        query_ops=sum(query_counts),
        elements_streamed=sum(element_counts),
        views_built=sum(view_counts),
        write_ops=write_ops,
        counters=stats.snapshot(),
        reader_errors=errors,
    )


@dataclass
class ShardedStressResult:
    """Outcome of one sharded concentrated-write stress run."""

    shards: int
    clients: int
    write_ops: int
    wall_seconds: float
    epochs_published: int
    write_merges: int
    #: Mean submit-to-commit latency of one batch ticket (milliseconds) —
    #: the freshness cost a submitter pays; write buffering trades this
    #: against throughput.
    mean_ticket_ms: float
    epoch_numbers: tuple
    errors: list = field(default_factory=list)

    @property
    def ops_per_second(self) -> float:
        return self.write_ops / self.wall_seconds if self.wall_seconds else 0.0


def run_sharded_write_stress(
    schemes: "Sequence[LabelingScheme]",
    base_labels: int = 1000,
    clients: int = 4,
    total_ops: int = 2000,
    batch: int = 8,
    group_size: int = 8,
    write_buffer: int = 1,
    queue_capacity: int = 64,
    log_capacity: int = 4096,
) -> ShardedStressResult:
    """Concentrated-insert write stress against a sharded service.

    ``clients`` producer threads each hammer one shard (client ``i`` pins
    to shard ``i % n_shards``) with batches of ``batch`` inserts squeezed
    before an anchor in the middle of that shard's chunk — the paper's
    concentrated adversary, one hot spot per shard.  Every submission is
    a synchronous ticket round-trip, so ``mean_ticket_ms`` measures the
    freshness a submitter actually gets while ``ops_per_second`` measures
    aggregate throughput across all shard writers; raising
    ``write_buffer`` moves the run along that tradeoff curve.

    The schemes must be freshly built (this function bulk loads them);
    with one scheme this is exactly a single-writer stress run.
    """
    import threading

    from ..service.sharded import ShardedLabelService, bulk_load_sharded

    n_shards = len(schemes)
    glids = bulk_load_sharded(schemes, base_labels)
    by_shard: dict[int, list[int]] = {}
    for glid in glids:
        by_shard.setdefault(glid % n_shards, []).append(glid)
    anchors = [chunk[len(chunk) // 2] for _, chunk in sorted(by_shard.items())]

    service = ShardedLabelService(
        schemes,
        group_size=group_size,
        queue_capacity=queue_capacity,
        log_capacity=log_capacity,
        write_buffer=write_buffer,
    )
    per_client = max(1, total_ops // (clients * batch))
    barrier = threading.Barrier(clients + 1)
    latencies = [0.0] * clients
    counts = [0] * clients
    errors: list = []

    def client(index: int) -> None:
        anchor = anchors[index % n_shards]
        ops = [BatchOp("insert_before", (anchor,))] * batch
        waited = 0.0
        done = 0
        try:
            barrier.wait(timeout=60)
            for _ in range(per_client):
                t0 = time.perf_counter()
                service.submit_ops(ops, timeout=60).wait(timeout=60)
                waited += time.perf_counter() - t0
                done += batch
        except Exception as error:  # surfaced to the caller, fails the run
            errors.append(error)
        finally:
            latencies[index] = waited
            counts[index] = done

    threads = [
        threading.Thread(target=client, args=(i,), name=f"shard-writer-client-{i}", daemon=True)
        for i in range(clients)
    ]
    with service:
        for thread in threads:
            thread.start()
        barrier.wait(timeout=60)
        started = time.perf_counter()
        for thread in threads:
            thread.join(timeout=600)
        wall = time.perf_counter() - started
        if any(thread.is_alive() for thread in threads):
            errors.append(RuntimeError("stress client failed to stop"))
        epoch_numbers = service.current_epoch_vector.numbers
        epochs = sum(s.stats.epochs_published for s in service.shards)
        merges = sum(s.stats.write_merges for s in service.shards)
    write_ops = sum(counts)
    tickets = sum(counts) // batch if batch else 0
    return ShardedStressResult(
        shards=n_shards,
        clients=clients,
        write_ops=write_ops,
        wall_seconds=wall,
        epochs_published=epochs,
        write_merges=merges,
        mean_ticket_ms=(sum(latencies) / tickets * 1000.0) if tickets else 0.0,
        epoch_numbers=epoch_numbers,
        errors=errors,
    )


def crash_recovery_tape(
    n_ops: int, seed: int = 0, delete_fraction: float = 0.15
) -> list[tuple[str, int]]:
    """A deterministic mixed insert/delete tape for crash-recovery sweeps.

    Each step is ``("insert_before", draw)`` or ``("delete", draw)`` where
    ``draw`` indexes the *current* live-LID list modulo its length — the
    tape is independent of concrete LID values, so the same tape replays
    identically on a file-backed scheme and on its memory-backed twin
    oracle (:func:`apply_tape_step` is the one shared interpreter).  Same
    ``(n_ops, seed)``, same tape, every run: the chaos sweep's determinism
    rests on this.
    """
    import random

    rng = random.Random(seed)
    steps: list[tuple[str, int]] = []
    for _ in range(n_ops):
        kind = "delete" if rng.random() < delete_fraction else "insert_before"
        steps.append((kind, rng.randrange(1 << 20)))
    return steps


def apply_tape_step(target: Any, lids: list[int], step: tuple[str, int]) -> None:
    """Interpret one :func:`crash_recovery_tape` step against ``target``,
    keeping ``lids`` (the live-LID list, mutated in place) in sync.

    ``target`` is anything with ``insert_before(lid) -> lid`` and
    ``delete(lid)`` over the LIDs in ``lids``: a scheme, or the chaos
    driver's live service and its twin (the one interpreter for both).
    Deletes are demoted to inserts while the live population is small, so
    a delete-heavy seed can never drain the structure.
    """
    kind, draw = step
    if kind == "delete" and len(lids) > 12:
        target.delete(lids.pop(draw % len(lids)))
    else:
        lids.append(target.insert_before(lids[draw % len(lids)]))


def subtree_tags_and_pairing(root: Element) -> tuple[list[Tag], list[int]]:
    """Tags (document order) and pairing for a subtree — the inputs bulk
    subtree insertion needs."""
    tags = list(document_tags(root))
    return tags, tag_pairing(tags)


def element_insert_order(root: Element) -> list[Element]:
    """Elements of ``root`` in the order the XMark build inserts them."""
    return list(root.iter())


__all__ = [
    "WorkloadResult",
    "BatchedWorkloadResult",
    "two_level_pairing",
    "run_concentrated",
    "run_concentrated_batched",
    "run_scattered",
    "run_scattered_batched",
    "run_xmark_build",
    "run_xmark_build_batched",
    "ShardedStressResult",
    "run_sharded_write_stress",
    "crash_recovery_tape",
    "apply_tape_step",
    "subtree_tags_and_pairing",
    "element_insert_order",
    "TagKind",
]
