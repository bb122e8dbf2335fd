"""Lock-free replay against published log windows, under a live writer.

A :class:`~repro.core.cachelog.LogSnapshot` is a window over the
modification log's own list, shared with the writer.  The writer only
appends past a published ``hi`` or compacts into a new list, so a reader
needs no lock.  Here reader threads replay a snapshot held from the start,
and the newest one the writer published, while the writer records 10k
effects through many compactions.  Every answer must equal the full-scan
oracle over a frozen copy that the writer took from its own model of the
FIFO, independent of the log's internals.
"""

from __future__ import annotations

import random
import sys
import threading

from repro.core.cachelog import LABEL_CHANNEL, ORDINAL_CHANNEL, Invalidate, ModificationLog, RangeShift

from ..cachelog_reference import replay_effects

CAPACITY = 48
EFFECTS = 10_000
READERS = 3  # with the writer: more threads than the two-core CI runners
LABELS = (0, 3, 7, 12, 20, 33)


def _effect(rng: random.Random, timestamp: int):
    channel = LABEL_CHANNEL if rng.random() < 0.8 else ORDINAL_CHANNEL
    lo = rng.randrange(0, 30)
    if rng.random() < 0.05:
        return Invalidate(timestamp, lo, lo + rng.randrange(0, 4), channel)
    hi = None if rng.random() < 0.3 else lo + rng.randrange(0, 10)
    return RangeShift(timestamp, lo, hi, rng.choice((-1, 1)), channel)


def _expected(frozen, last_cached: int, label: int, channel: str):
    entries, dropped_through, last_modified = frozen
    return replay_effects(entries, dropped_through, last_modified, label, last_cached, channel)


def test_readers_replay_published_windows_while_the_writer_compacts():
    rng = random.Random(7)
    log = ModificationLog(CAPACITY)
    model: list = []
    dropped = [0]
    timestamp = [0]

    def record() -> None:
        if rng.random() < 0.6:
            timestamp[0] += 1
        effect = _effect(rng, timestamp[0])
        log.record(effect)
        model.append(effect)
        if len(model) > CAPACITY:
            dropped[0] = model.pop(0).timestamp

    def frozen():
        return tuple(model), dropped[0], timestamp[0]

    for _ in range(CAPACITY):
        record()
    held, held_frozen = log.snapshot(), frozen()
    held_cases = [
        (label, channel, last_cached, _expected(held_frozen, last_cached, label, channel))
        for label in LABELS
        for channel in (LABEL_CHANNEL, ORDINAL_CHANNEL)
        for last_cached in range(held_frozen[1] - 1, held_frozen[2] + 1)
    ]
    published = [(held, held_frozen)]
    done = threading.Event()
    failures: list = []
    replays = [0] * READERS

    def writer() -> None:
        try:
            for count in range(EFFECTS):
                record()
                if count % 7 == 0:
                    published[0] = (log.snapshot(), frozen())
        except Exception as error:  # surfaced by the assertion below
            failures.append(error)
        finally:
            done.set()

    def reader(slot: int) -> None:
        local = random.Random(slot)
        try:
            while not done.is_set() or replays[slot] == 0:
                for label, channel, last_cached, expected in held_cases:
                    got = held.replay(label, last_cached, channel)
                    if got != expected:
                        failures.append(("held", label, channel, last_cached, got, expected))
                snapshot, snap_frozen = published[0]
                for _ in range(16):
                    label = local.choice(LABELS)
                    channel = local.choice((LABEL_CHANNEL, ORDINAL_CHANNEL))
                    last_cached = local.randrange(snap_frozen[1] - 1, snap_frozen[2] + 1)
                    got = snapshot.replay(label, last_cached, channel)
                    expected = _expected(snap_frozen, last_cached, label, channel)
                    if got != expected:
                        failures.append(("newest", label, channel, last_cached, got, expected))
                replays[slot] += 1
        except Exception as error:  # surfaced by the assertion below
            failures.append(error)

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=reader, args=(slot,)) for slot in range(READERS)]
        threads.append(threading.Thread(target=writer))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(previous)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
    assert all(replays)
    assert log.last_modified == timestamp[0]
    assert held.items is not published[0][0].items  # the writer compacted past it
