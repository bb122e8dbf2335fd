"""Fallthrough accounting for multi-label reads.

:meth:`ReaderSession.resolve` serves a LID set in one pass at the pin,
reads every LID the log cannot bridge from the BOX under one shared-latch
hold (which advances the pin), and brings the rest forward in a second
pass at the new pin.  Each LID is one logical read of one label: counted
once in ``ServiceStats.fallthrough_reads`` (and once in ``reads``),
however many passes the call made.  The regression here scripts the
writes deterministically: the service's yield hook applies a write batch
inline at the first N ``read:begin`` points, all on one thread — no
scheduler, no timing.

With ``log_capacity=1`` and two-op write batches, every batch drops
history beyond what replay can bridge, so a session whose pin lags always
falls through.  A ``lookup_pair`` whose first pass sees a write land
before each of its two cold labels reads both from the BOX in one latch
hold, at the newest epoch, and counts 2 fallthroughs for 2 labels.
"""

from __future__ import annotations

from repro import BatchOp, TINY_CONFIG, WBox
from repro.service import LabelService
from repro.workloads.sequences import _bulk_load_two_level


def build(write_budget: int):
    """A W-BOX service whose yield hook applies one two-insert batch at
    each of the first ``write_budget`` read:begin points (inline, same
    thread — deterministic by construction)."""
    scheme = WBox(TINY_CONFIG)
    lids = _bulk_load_two_level(scheme, 4)
    state = {"service": None, "writes_left": write_budget, "in_write": False}

    def hook(tag: str) -> None:
        if tag != "read:begin" or state["in_write"] or state["writes_left"] <= 0:
            return
        state["writes_left"] -= 1
        state["in_write"] = True
        try:
            state["service"].apply_ops_sync(
                [
                    BatchOp("insert_element_before", (lids[3],)),
                    BatchOp("insert_element_before", (lids[3],)),
                ]
            )
        finally:
            state["in_write"] = False

    service = LabelService(
        scheme,
        log_capacity=1,
        group_size=1,
        yield_hook=hook,
    )
    state["service"] = service
    return scheme, service, lids


def test_lookup_pair_retry_counts_each_label_once():
    scheme, service, lids = build(write_budget=3)
    try:
        session = service.session()
        start_lid, end_lid = lids[1], lids[2]
        pin_before = session.epoch.number
        pair = tuple(session.resolve((start_lid, end_lid)))
        # The pin advanced (fallthroughs happened) and never regressed.
        assert session.epoch.number > pin_before
        # The returned pair is the truth at the final pin — no writes run
        # after the hook budget is spent, so direct lookups agree.
        assert pair == scheme.lookup_pair(start_lid, end_lid)

        counters = service.stats.snapshot()
        # Two labels were read, both from the BOX: counted once each.
        assert counters.fallthrough_reads == 2, counters
        assert counters.reads == (
            counters.fresh_hits + counters.replay_hits + counters.fallthrough_reads
        ), counters
    finally:
        service.close()


def test_independent_lookups_each_count_a_fallthrough():
    """The dedup must be scoped to ONE consistent read: separate lookup()
    calls that each fall through are each counted — including the same
    LID falling through again on a later call after the pin moved."""
    scheme, service, lids = build(write_budget=0)
    try:
        session = service.session()
        session.resolve((lids[1],))  # cold ref -> fallthrough
        session.resolve((lids[2],))  # different cold ref -> fallthrough
        # Outrun the one-entry log, then advance the pin: the next read of
        # an already-seen LID cannot be repaired and falls through again.
        service.apply_ops_sync(
            [
                BatchOp("insert_element_before", (lids[3],)),
                BatchOp("insert_element_before", (lids[3],)),
            ]
        )
        session.refresh()
        session.resolve((lids[1],))
        counters = service.stats.snapshot()
        assert counters.fallthrough_reads == 3, counters
        assert counters.reads == 3, counters
        assert counters.fresh_hits == 0 and counters.replay_hits == 0, counters
    finally:
        service.close()


def test_quiet_pair_read_has_no_retry_inflation():
    """Control: with no concurrent writes a warm pair read is two fresh
    hits and zero fallthroughs."""
    scheme, service, lids = build(write_budget=0)
    try:
        session = service.session()
        session.resolve((lids[1], lids[2]))  # cold: two fallthroughs
        service.stats.reset()
        session.resolve((lids[1], lids[2]))
        counters = service.stats.snapshot()
        assert counters.fallthrough_reads == 0, counters
        assert counters.fresh_hits == 2, counters
        assert counters.reads == 2, counters
    finally:
        service.close()
