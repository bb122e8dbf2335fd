"""Deterministic interleavings of a writer dying mid-group-commit.

The virtual writer drives :meth:`LabelService._apply_wakeup` — the
production writer-loop body — with a :class:`FaultPlan.writer_crash`
installed at ``service.group_commit``: the kill fires after the wake-up's
mutations are applied and committed but before its epoch publishes, the
worst spot for readers.  Under every interleaving of the preemption
points the invariants are:

* warm readers pinned to a pre-crash epoch serve every lookup and pair
  from cache/replay, agreeing with that epoch's oracle row — no torn
  pairs, no leakage of the dead group's unpublished mutations;
* a cold reader's fallthrough either completes before the group applies
  (valid at its pin) or is refused with :class:`ServiceDegradedError` —
  it can never observe the applied-but-unpublished structure, even when
  it was already blocked on the latch when the writer died;
* the degradation is recorded exactly once in :class:`ServiceStats`, and
  post-crash writes fail fast, typed.
"""

from __future__ import annotations

import pytest

from repro import BatchOp, TINY_CONFIG, WBox
from repro.errors import ServiceDegradedError, WriterCrashError
from repro.faults import FaultInjector, FaultPlan
from repro.service import LabelService
from repro.workloads.sequences import _bulk_load_two_level

from .scheduler import SchedulerLatch, explore

PREEMPT = {"read:begin", "read:fallthrough", "write:latch", "write:apply"}


def build_degraded_world(scheduler):
    """Fresh scheme + service with a writer-kill fault armed at the first
    group commit, plus the epoch-truth oracle."""
    scheme = WBox(TINY_CONFIG)
    lids = _bulk_load_two_level(scheme, 4)
    history: dict[int, dict[int, object]] = {}

    def record(epoch) -> None:
        history[epoch.number] = {lid: scheme.lookup(lid) for lid in lids}

    service = LabelService(
        scheme,
        log_capacity=64,
        group_size=1,
        latch=SchedulerLatch(scheduler),
        yield_hook=scheduler.yield_point,
        epoch_hook=record,
        fault_injector=FaultInjector(FaultPlan.writer_crash()),
    )
    record(service.current_epoch)
    return scheme, service, lids, history


def make_dying_writer(service, lids, outcome):
    def run() -> None:
        try:
            service._apply_wakeup([[BatchOp("insert_element_before", (lids[3],))]])
        except WriterCrashError:
            outcome["crashes"] += 1

    return run


def make_pinned_reader(service, lids, history, pairs):
    """Warmed session: every post-crash read must come from cache/replay
    at the pinned epoch and match that epoch's oracle row exactly."""
    session = service.session()
    for lid in lids:
        session.resolve((lid,))

    def run() -> None:
        for start_lid, end_lid in pairs:
            start, end = session.resolve((start_lid, end_lid))
            pin = session.epoch.number
            truth = (history[pin][start_lid], history[pin][end_lid])
            assert (start, end) == truth, (
                f"torn pair ({start_lid},{end_lid}): got {(start, end)!r}, "
                f"epoch {pin} truth {truth!r}"
            )

    return run


def make_cold_reader(service, lids, history, outcome):
    """Cold session: the fallthrough either lands before the dead group's
    mutations (valid at its pin) or is refused, typed — never a value
    from the unpublished structure state."""
    session = service.session()

    def run() -> None:
        for lid in (lids[1], lids[5]):
            try:
                (value,) = session.resolve((lid,))
            except ServiceDegradedError:
                outcome["rejected_reads"] += 1
                continue
            pin = session.epoch.number
            assert value == history[pin][lid], (
                f"cold lookup({lid}) = {value!r} leaked unpublished state; "
                f"epoch {pin} truth is {history[pin][lid]!r}"
            )
            outcome["clean_reads"] += 1

    return run


@pytest.mark.slow
def test_writer_death_mid_group_commit_interleavings():
    outcome = {"crashes": 0, "rejected_reads": 0, "clean_reads": 0}
    schedules = {"count": 0}

    def setup(scheduler):
        scheme, service, lids, history = build_degraded_world(scheduler)
        scheduler.spawn(
            "pinned",
            make_pinned_reader(service, lids, history, [(lids[3], lids[4])]),
        )
        scheduler.spawn("cold", make_cold_reader(service, lids, history, outcome))
        scheduler.spawn("writer", make_dying_writer(service, lids, outcome))

        def finish() -> None:
            schedules["count"] += 1
            assert service.degraded
            assert "WriterCrashError" in service.degraded_reason
            counters = service.stats.snapshot()
            assert counters.degradations == 1
            # Fail-fast write path: refused before touching the queue.
            with pytest.raises(ServiceDegradedError):
                service.submit_ops([BatchOp("insert_element_before", (lids[3],))])
            assert service.stats.snapshot().degraded_write_rejects == 1
            assert service.describe()["state"] == "degraded"

        return finish

    executed = explore(setup, preempt_on=PREEMPT)
    assert executed == schedules["count"]
    # The writer dies in EVERY schedule; a collapse here means the fault
    # stopped firing and the sweep went vacuous.
    assert outcome["crashes"] == executed
    assert executed >= 50, executed
    # The schedule space must reach both cold-reader fates: fallthrough
    # completing pre-crash and the typed post-crash rejection.
    assert outcome["clean_reads"] > 0
    assert outcome["rejected_reads"] > 0


def test_blocked_fallthrough_cannot_slip_past_degradation():
    """The nastiest schedule, pinned directly: the cold reader is already
    blocked on the latch when the writer dies.  It must be refused on
    wake-up — the degraded flag is set before exclusive release — rather
    than read the dead group's mutations at its stale pin."""
    rejected = {"count": 0}

    def setup(scheduler):
        scheme, service, lids, history = build_degraded_world(scheduler)

        def cold_read() -> None:
            session = service.session()
            try:
                session.resolve((lids[1],))
            except ServiceDegradedError:
                rejected["count"] += 1

        scheduler.spawn("cold", cold_read)
        scheduler.spawn(
            "writer",
            make_dying_writer(service, lids, {"crashes": 0}),
        )
        return None

    # Force the writer to take the latch first, then let the reader run
    # into it: preempting only on the writer's pre-latch points makes the
    # reader's fallthrough start while exclusive is held in a prefix of
    # the schedules; the sweep covers the rest.
    executed = explore(setup, preempt_on=PREEMPT)
    assert executed >= 10
    assert rejected["count"] > 0
