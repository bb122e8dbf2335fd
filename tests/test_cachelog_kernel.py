"""The windowed Section 6 replay kernel against the full-scan oracle.

:meth:`repro.core.cachelog.LogSnapshot.replay` starts at a binary search on
the window's timestamps and takes an inline path for int labels; a
:class:`LogSnapshot` is a window over the log's own list, not a copy.  The
property here is that none of that changes a single answer: for every
``(label, last_cached)``, replay on the live log's current window and on
every snapshot taken along the way — held across later appends, evictions
and compactions — equals :func:`tests.cachelog_reference.replay_effects` over a frozen copy
of what the log held.  The frozen copy comes from an independent model of
the FIFO, so eviction and ``dropped_through`` are checked too.

The directed tests pin the cost (old entries are reached only through the
bisect key; an unchanged log publishes without copying) and the ordering
precondition ``record`` enforces.
"""

from __future__ import annotations

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.core.cachelog import (
    LABEL_CHANNEL,
    ORDINAL_CHANNEL,
    Invalidate,
    ModificationLog,
    RangeShift,
    invalidate_all,
)
from repro.errors import CacheError

from .cachelog_reference import replay_effects

CHANNELS = (LABEL_CHANNEL, ORDINAL_CHANNEL)

#: ``int``: W-BOX / naive-k labels on both channels.  ``tuple``: component
#: labels with prefix bounds on both channels.  ``bbox``: B-BOX's real mix —
#: tuple labels on the label channel, int ordinals on the ordinal channel.
KINDS = ("int", "tuple", "bbox")

INT_VALUE = st.integers(0, 12)
TUPLE_VALUE = st.lists(st.integers(0, 3), min_size=1, max_size=3).map(tuple)


def _tuple_channel(kind: str, channel: str) -> bool:
    return kind == "tuple" or (kind == "bbox" and channel == LABEL_CHANNEL)


@st.composite
def _effect(draw, kind: str, timestamp: int):
    channel = draw(st.sampled_from(CHANNELS))
    value = TUPLE_VALUE if _tuple_channel(kind, channel) else INT_VALUE
    if draw(st.integers(0, 3)):
        delta = draw(st.sampled_from((-2, -1, 0, 1, 2)))
        # A delete's shift frees labels: ``-delta`` of them (one for the
        # zero shift of a scheme whose labels never move).
        freed = draw(st.integers(0, max(-delta, 1))) if delta <= 0 else 0
        return RangeShift(
            timestamp, draw(value), draw(st.none() | value), delta, channel, freed
        )
    return Invalidate(timestamp, draw(st.none() | value), draw(st.none() | value), channel)


@st.composite
def streams(draw):
    """A capacity, a label kind, and a stream of steps: effects with
    non-decreasing timestamps (runs of equal ticks included) interleaved
    with snapshots."""
    kind = draw(st.sampled_from(KINDS))
    capacity = draw(st.sampled_from((0, 1, 2, 3, 5)))
    timestamp = 0
    steps = []
    for _ in range(draw(st.integers(0, 40))):
        choice = draw(st.integers(0, 5))
        if choice == 0:
            steps.append(("snapshot", True))
        elif choice == 1:
            steps.append(("snapshot", False))
        else:
            timestamp += draw(st.sampled_from((0, 0, 1, 1, 2)))
            steps.append(("record", draw(_effect(kind, timestamp))))
    queries = []
    for channel in CHANNELS:
        value = TUPLE_VALUE if _tuple_channel(kind, channel) else INT_VALUE
        for label in draw(st.lists(value, min_size=1, max_size=5)):
            queries.append((label, channel))
    return capacity, steps, queries, timestamp


class FifoModel:
    """The log's contract, written the slow obvious way."""

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self.entries: list = []
        self.dropped_through = 0
        self.last_modified = 0

    def record(self, effect) -> None:
        self.last_modified = max(self.last_modified, effect.timestamp)
        if self.capacity == 0:
            self.dropped_through = self.last_modified
            return
        self.entries.append(effect)
        while len(self.entries) > self.capacity:
            dropped = self.entries.pop(0)
            self.dropped_through = max(self.dropped_through, dropped.timestamp)

    def frozen(self) -> tuple:
        return tuple(self.entries), self.dropped_through, self.last_modified


def _check(replay, frozen, queries, last_timestamp) -> None:
    entries, dropped_through, last_modified = frozen
    for label, channel in queries:
        for last_cached in range(-1, last_timestamp + 2):
            expected = replay_effects(
                entries, dropped_through, last_modified, label, last_cached, channel
            )
            got = replay(label, last_cached, channel)
            assert got == expected, (label, last_cached, channel, entries)


@given(streams())
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_kernel_equals_full_scan_on_live_log_and_every_snapshot(stream):
    capacity, steps, queries, last_timestamp = stream
    log = ModificationLog(capacity)
    model = FifoModel(capacity)
    held = []
    for action, arg in steps:
        if action == "record":
            log.record(arg)
            model.record(arg)
            assert len(log) == len(model.entries)
            assert log.dropped_through == model.dropped_through
            assert log.last_modified == model.last_modified
        else:
            snapshot = log.snapshot(advance_epoch=arg)
            assert len(snapshot) == len(model.entries)
            held.append((snapshot, model.frozen()))
        _check(log.snapshot(advance_epoch=False).replay, model.frozen(), queries, last_timestamp)
    held.append((log.snapshot(), model.frozen()))
    epochs = [snapshot.epoch for snapshot, _ in held]
    assert epochs == sorted(epochs)
    for snapshot, frozen in held:  # every one outlived later appends
        assert tuple(snapshot.items[snapshot.lo:snapshot.hi]) == frozen[0]
        _check(snapshot.replay, frozen, queries, last_timestamp)


# ----------------------------------------------------------------------
# cost guard
# ----------------------------------------------------------------------


class Sentinel:
    """A logged effect that only exposes its timestamp."""

    __slots__ = ("timestamp",)

    def __init__(self, timestamp: int) -> None:
        self.timestamp = timestamp

    def __getattr__(self, name: str):
        raise AssertionError(f"replay read {name!r} of an entry older than last_cached")


@pytest.mark.parametrize(
    "real, label, expected",
    [
        (
            [RangeShift(4001, 10, None, +1), RangeShift(4001, 0, 5, +1),
             Invalidate(4002, 100, 200)],
            10,
            11,
        ),
        (
            [RangeShift(4001, (1, 2), (1, 2), +1), RangeShift(4002, (0,), (0,), +1),
             Invalidate(4002, (2,), None)],
            (1, 2, 3),
            (1, 2, 4),
        ),
    ],
)
def test_replay_reaches_old_entries_only_through_the_bisect_key(real, label, expected):
    log = ModificationLog(capacity=4096)
    for timestamp in range(1, 4001):
        log.record(Sentinel(timestamp))
    for effect in real:
        log.record(effect)
    snapshot = log.snapshot()
    assert len(snapshot) == 4003
    assert snapshot.replay(label, last_cached=4000) == expected
    assert log.snapshot(advance_epoch=False).replay(label, last_cached=4000) == expected


def test_unchanged_log_publishes_without_copying():
    log = ModificationLog(capacity=8)
    for timestamp in range(1, 6):
        log.record(RangeShift(timestamp, 0, None, +1))
    first = log.snapshot()
    second = log.snapshot()
    assert second.items is first.items
    assert (first.lo, first.hi) == (second.lo, second.hi)
    assert second.epoch == first.epoch + 1


def test_empty_window_pins_no_list():
    # A session opened before the first write holds this snapshot for as
    # long as it stays idle; it must not keep later effects alive.
    log = ModificationLog(capacity=8)
    idle = log.snapshot()
    for timestamp in range(1, 6):
        log.record(RangeShift(timestamp, 0, None, +1))
    assert len(idle.items) == 0 and len(idle) == 0
    assert idle.replay(3, last_cached=0) == 3


def test_compaction_moves_the_live_window_to_a_new_list():
    log = ModificationLog(capacity=3)
    log.record(RangeShift(1, 0, None, +1))
    held = log.snapshot()
    for timestamp in range(2, 12):
        log.record(RangeShift(timestamp, 0, None, +1))
    fresh = log.snapshot()
    assert fresh.items is not held.items  # the dead prefix was dropped
    assert len(fresh.items) <= 2 * 3 + 1
    assert held.replay(0, last_cached=0) == 1
    assert fresh.replay(0, last_cached=8) == 3
    assert fresh.replay(0, last_cached=7) is None  # evicted


# ----------------------------------------------------------------------
# ordering precondition
# ----------------------------------------------------------------------


@pytest.mark.parametrize("capacity", [0, 1, 4])
def test_record_rejects_an_older_timestamp(capacity):
    log = ModificationLog(capacity)
    log.record(RangeShift(5, 0, None, +1))
    log.record(RangeShift(5, 0, None, +1))  # equal ticks: a split's effects
    log.record(invalidate_all(5, LABEL_CHANNEL))
    log.record(invalidate_all(5, ORDINAL_CHANNEL))  # a follower's pair
    before = (len(log), log.last_modified, log.dropped_through)
    with pytest.raises(CacheError):
        log.record(RangeShift(4, 0, None, +1))
    assert (len(log), log.last_modified, log.dropped_through) == before
    log.record(RangeShift(6, 0, None, +1))
    assert log.last_modified == 6
