"""The bounded write queue: backpressure, its timeout, and shutdown.

Directed tests of :class:`repro.service.queue.WriteQueue` — the contract
the stress driver's write clients lean on — plus one service-level case
where a stalled writer makes a submitter hit the timeout.
"""

import threading
import time

import pytest

from repro import TINY_CONFIG, WBox
from repro.core.batch import BatchOp
from repro.errors import BackpressureTimeout, ServiceClosedError
from repro.service.queue import WriteQueue
from repro.service.sharded import ShardedLabelService
from repro.service.stats import ServiceStats

from .test_sharded_service import _GatedLatch


def _blocked_put(queue, item, timeout=None):
    """Start ``queue.put(item)`` on a thread that is expected to block;
    returns (thread, outcome list) once the producer is waiting."""
    outcome = []

    def produce():
        try:
            queue.put(item, timeout=timeout)
            outcome.append("put")
        except Exception as error:  # the test asserts on it
            outcome.append(error)

    thread = threading.Thread(target=produce, daemon=True)
    thread.start()
    deadline = time.monotonic() + 5
    while queue.stats.backpressure_waits == 0 and time.monotonic() < deadline:
        time.sleep(0.001)
    return thread, outcome


def test_put_at_capacity_blocks_and_counts_one_wait():
    stats = ServiceStats()
    queue = WriteQueue(2, stats=stats)
    queue.put("a")
    queue.put("b")
    assert stats.backpressure_waits == 0  # below capacity: no wait counted
    thread, outcome = _blocked_put(queue, "c")
    assert stats.backpressure_waits == 1
    assert thread.is_alive() and outcome == [] and len(queue) == 2
    assert queue.get() == "a"  # room: the producer goes through
    thread.join(timeout=5)
    assert not thread.is_alive() and outcome == ["put"]
    assert [queue.get(), queue.get()] == ["b", "c"]
    assert stats.backpressure_waits == 1  # one blocked put, one wait


def test_put_raises_backpressure_timeout_and_enqueues_nothing():
    queue = WriteQueue(1, stats=ServiceStats())
    queue.put("a")
    started = time.monotonic()
    with pytest.raises(BackpressureTimeout, match="1 pending"):
        queue.put("b", timeout=0.05)
    assert 0.05 <= time.monotonic() - started < 2.0
    assert len(queue) == 1 and queue.get() == "a"
    assert queue.stats.backpressure_waits == 1


def test_close_wakes_a_blocked_producer_with_service_closed():
    queue = WriteQueue(1, stats=ServiceStats())
    queue.put("a")
    thread, outcome = _blocked_put(queue, "b")
    queue.close()
    thread.join(timeout=5)
    assert not thread.is_alive()
    assert len(outcome) == 1 and isinstance(outcome[0], ServiceClosedError)
    with pytest.raises(ServiceClosedError):
        queue.put("c")
    assert len(queue) == 1  # neither refused item got in


def test_get_returns_none_only_when_closed_and_drained():
    queue = WriteQueue(4)
    queue.put("a")
    queue.put("b")
    queue.close()
    assert queue.closed
    assert queue.get() == "a"  # closed but not drained: items still come out
    assert queue.get(timeout=0) == "b"
    assert queue.get() is None  # closed and drained: no wait, no timeout needed
    open_queue = WriteQueue(1)
    assert open_queue.get(timeout=0.01) is None  # the timeout case, queue still open
    assert not open_queue.closed


def test_stalled_writer_turns_a_full_queue_into_backpressure_timeout():
    scheme = WBox(TINY_CONFIG)
    lids = scheme.bulk_load(8)
    latch = _GatedLatch()
    service = ShardedLabelService([scheme], queue_capacity=1, latches=[latch]).start()
    insert = [BatchOp("insert_before", (lids[3],))]
    try:
        held = service.submit_ops(insert, timeout=5)
        deadline = time.monotonic() + 5
        while service.queue_depth and time.monotonic() < deadline:
            time.sleep(0.001)  # the writer takes it and stalls at the latch
        queued = service.submit_ops(insert, timeout=5)  # fills the queue
        assert service.queue_depth == 1
        with pytest.raises(BackpressureTimeout):
            service.submit_ops(insert * 3, timeout=0.05)
        # Nothing of the refused batch was queued or applied.
        assert service.queue_depth == 1
        assert scheme.label_count() == 8 and not held.done and not queued.done
        assert service.shards[0].stats.backpressure_waits == 1
        latch.gate.set()
        assert len(held.wait(timeout=10).results) == 1
        assert len(queued.wait(timeout=10).results) == 1
        # The service keeps committing after the stall.
        assert len(service.submit_ops(insert, timeout=5).wait(timeout=10).results) == 1
        assert scheme.label_count() == 8 + 3
        assert service.shards[0].stats.write_errors == 0
        assert service.current_epoch_vector.numbers == (3,)
    finally:
        latch.gate.set()
        service.close()
