"""Exhaustive interleaving sweeps over the label service.

Each sweep rebuilds a deterministic world per schedule — a W-BOX over a
small two-level document, a :class:`LabelService` wired into the harness
(cooperative latch, yield hook, epoch oracle hook) — and runs reader
actors against a writer actor under every interleaving of the chosen
preemption points.  The oracle records the true labels of every tracked
LID at each published epoch (from the ``epoch_hook``, which fires while
the writer still holds the exclusive latch); after every read, the
invariant is

    value returned == oracle[session pin after the read][lid]

which rules out torn reads (both halves of a pair must match ONE epoch),
stale-beyond-log reads (a cache hit whose replay silently missed
effects would disagree with its pin's oracle row), and pin regressions.
"""

from __future__ import annotations

import pytest

from repro import BatchOp, TINY_CONFIG, WBox
from repro.service import LabelService
from repro.workloads.sequences import _bulk_load_two_level

from .scheduler import (
    DeadlockError,
    DeterministicScheduler,
    SchedulerLatch,
    explore,
)

#: Coarse preemption set: one decision per read, one per epoch publish.
COARSE = {"read:begin", "write:publish"}
#: Every service yield point — used for the fine-grained 1R x 1W sweep.
FINE = {"read:begin", "read:fallthrough", "write:latch", "write:apply", "write:publish"}

BASE_CHILDREN = 4  # two-level doc: 10 labels


def build_world(scheduler, *, log_capacity):
    """Fresh deterministic scheme + service + oracle for one schedule."""
    scheme = WBox(TINY_CONFIG)
    lids = _bulk_load_two_level(scheme, BASE_CHILDREN)
    history: dict[int, dict[int, object]] = {}

    def record(epoch) -> None:
        # Runs under the exclusive latch: the structure cannot move while
        # this row is captured, so it is epoch.number's exact truth.
        history[epoch.number] = {lid: scheme.lookup(lid) for lid in lids}

    service = LabelService(
        scheme,
        log_capacity=log_capacity,
        group_size=1,
        latch=SchedulerLatch(scheduler),
        yield_hook=scheduler.yield_point,
        epoch_hook=record,
    )
    record(service.current_epoch)
    return scheme, service, lids, history


def make_reader(service, lids, history, ops, warm):
    """A reader actor: runs ``ops`` on one session, checking the oracle
    invariant after every read.  ``warm`` pre-touches every LID from the
    (uncontended) setup thread so the actor exercises the replay path;
    cold readers exercise fallthrough."""
    session = service.session()
    if warm:
        for lid in lids:
            session.resolve((lid,))

    def run() -> None:
        last_pin = session.epoch.number
        for kind, args in ops:
            if kind == "refresh":
                session.refresh()
                pin = session.epoch.number
            elif kind == "lookup":
                (lid,) = args
                (value,) = session.resolve((lid,))
                pin = session.epoch.number
                assert value == history[pin][lid], (
                    f"lookup({lid}) = {value!r} but epoch {pin} truth is "
                    f"{history[pin][lid]!r}"
                )
            else:
                start_lid, end_lid = args
                start, end = session.resolve((start_lid, end_lid))
                pin = session.epoch.number
                truth = (history[pin][start_lid], history[pin][end_lid])
                assert (start, end) == truth, (
                    f"torn pair ({start_lid},{end_lid}): got {(start, end)!r}, "
                    f"epoch {pin} truth {truth!r}"
                )
            assert pin >= last_pin, f"session pin went backwards: {last_pin} -> {pin}"
            last_pin = pin

    return run


def make_writer(service, ops):
    def run() -> None:
        for op in ops:
            service.apply_ops_sync([op])

    return run


def writer_ops(lids, count):
    # Concentrated inserts before child 2's start label: every insert
    # shifts the tracked labels after it, so a missed effect is visible.
    return [BatchOp("insert_element_before", (lids[3],)) for _ in range(count)]


@pytest.mark.slow
def test_exhaustive_two_readers_one_writer():
    """The headline sweep: 2 readers x 1 writer x 3 write ops, every
    interleaving of the coarse preemption points.  A tiny log (4 effects
    < the 6 the writer emits) forces the overflow/fallthrough path in
    the schedules where a reader lags behind."""

    def setup(scheduler):
        scheme, service, lids, history = build_world(scheduler, log_capacity=4)
        reads_a = [("lookup", (lids[1],)), ("lookup", (lids[5],))]
        reads_b = [("pair", (lids[3], lids[4])), ("lookup", (lids[7],))]
        scheduler.spawn("reader-a", make_reader(service, lids, history, reads_a, warm=True))
        scheduler.spawn("reader-b", make_reader(service, lids, history, reads_b, warm=False))
        scheduler.spawn("writer", make_writer(service, writer_ops(lids, 3)))
        return None

    executed = explore(setup, preempt_on=COARSE)
    # 2 readers with >= 2 preemption points each, writer with 3: at
    # minimum the multinomial over (3, 3, 4) actor steps = 4200; latch
    # blocking adds more.  A collapse in this number means the sweep
    # silently stopped preempting.
    assert executed >= 4200, executed


def test_fine_grained_one_reader_one_writer():
    """1 reader x 1 writer through EVERY yield point, including the
    writer's latch/apply points inside the critical section and the
    reader's fallthrough — the latch-handoff schedules the coarse sweep
    cannot reach."""

    def setup(scheduler):
        scheme, service, lids, history = build_world(scheduler, log_capacity=3)
        reads = [("lookup", (lids[1],)), ("pair", (lids[3], lids[4]))]
        scheduler.spawn("reader", make_reader(service, lids, history, reads, warm=True))
        scheduler.spawn("writer", make_writer(service, writer_ops(lids, 2)))
        return None

    executed = explore(setup, preempt_on=FINE)
    assert executed >= 200, executed


def test_replay_and_fallthrough_both_covered():
    """Across the coarse sweep, some schedule serves reads by log replay
    and some schedule falls through — i.e. the sweep genuinely reaches
    both consistency paths rather than vacuously passing."""
    totals = {"replay": 0, "fallthrough": 0, "fresh": 0}

    def setup(scheduler):
        scheme, service, lids, history = build_world(scheduler, log_capacity=64)
        reads = [
            ("lookup", (lids[5],)),
            ("refresh", ()),
            ("lookup", (lids[7],)),
        ]
        scheduler.spawn("reader", make_reader(service, lids, history, reads, warm=True))
        scheduler.spawn("writer", make_writer(service, writer_ops(lids, 2)))
        service.stats.reset()  # drop warmup fallthroughs from the counts

        def finish():
            counters = service.stats.snapshot()
            totals["replay"] += counters.replay_hits
            totals["fallthrough"] += counters.fallthrough_reads
            totals["fresh"] += counters.fresh_hits

        return finish

    explore(setup, preempt_on=COARSE)
    assert totals["replay"] > 0, totals
    assert totals["fresh"] > 0, totals


# ---------------------------------------------------------------------------
# harness self-tests: the sweep above is only as trustworthy as the
# scheduler, so pin its schedule arithmetic and deadlock detection.
# ---------------------------------------------------------------------------


def test_scheduler_enumerates_exact_schedule_count():
    """Two actors with one yield each = two steps each: C(4,2) = 6
    interleavings, each visited exactly once."""
    orders = []

    def setup(scheduler):
        trace = []

        def actor(name):
            def run():
                trace.append(f"{name}1")
                scheduler.yield_point("step")
                trace.append(f"{name}2")

            return run

        scheduler.spawn("a", actor("a"))
        scheduler.spawn("b", actor("b"))
        return lambda: orders.append(tuple(trace))

    executed = explore(setup, preempt_on={"step"})
    assert executed == 6
    assert len(set(orders)) == 6  # all distinct interleavings
    for order in orders:  # program order preserved within each actor
        assert order.index("a1") < order.index("a2")
        assert order.index("b1") < order.index("b2")


def test_scheduler_detects_deadlock():
    """Two actors taking two cooperative latches in opposite orders must
    be reported as a deadlock in at least one schedule."""
    deadlocks = 0

    def setup(scheduler):
        latch1 = SchedulerLatch(scheduler)
        latch2 = SchedulerLatch(scheduler)

        def actor(first, second):
            def run():
                first.acquire_exclusive()
                scheduler.yield_point("step")
                second.acquire_exclusive()
                second.release_exclusive()
                first.release_exclusive()

            return run

        scheduler.spawn("ab", actor(latch1, latch2))
        scheduler.spawn("ba", actor(latch2, latch1))
        return None

    try:
        explore(setup, preempt_on={"step"})
    except DeadlockError:
        deadlocks += 1
    assert deadlocks == 1


def test_forced_prefix_replays_schedule():
    """A recorded decision list replays the identical schedule."""
    def body(scheduler, trace):
        def actor(name):
            def run():
                trace.append(name)
                scheduler.yield_point("step")
                trace.append(name.upper())

            return run

        scheduler.spawn("x", actor("x"))
        scheduler.spawn("y", actor("y"))

    first_trace: list[str] = []
    sched = DeterministicScheduler(preempt_on={"step"}, forced=[1, 1, 0])
    body(sched, first_trace)
    sched.run()

    replay_trace: list[str] = []
    replay = DeterministicScheduler(
        preempt_on={"step"}, forced=[c for c, _ in sched.decisions]
    )
    body(replay, replay_trace)
    replay.run()
    assert replay_trace == first_trace
