"""A session read is one ``ReaderSession.resolve``: one pass, one latch hold.

Every session read — ``lookup``, ``lookup_pair``, ``compare``,
``is_ancestor`` and ``lookup_many`` — resolves its whole LID set at once.
The LIDs the pinned log cannot serve are read from the BOX under a single
shared-latch hold, however many there are, and the read is counted in one
``add``.  These tests count the latch acquisitions of cold reads on a
session whose pin lags, and guard that the retry loops stay gone.
"""

from __future__ import annotations

import ast
import inspect
import textwrap

from repro import TINY_CONFIG, BatchOp, WBox
from repro.query.streams import QueryEngine
from repro.service import ReaderSession, ShardedLabelService, ShardedReaderSession
from repro.storage import ReaderWriterLatch
from repro.workloads.sequences import _bulk_load_two_level


class CountingLatch(ReaderWriterLatch):
    """A real latch that counts its shared acquisitions."""

    def __init__(self) -> None:
        super().__init__()
        self.shared = 0

    def acquire_shared(self) -> None:
        self.shared += 1
        super().acquire_shared()


def lagging_service():
    """A 1-shard W-BOX service with a one-entry log, a session pinned at
    epoch 0 and three published epochs after it: every ref is cold and
    the pin lags by three."""
    scheme = WBox(TINY_CONFIG)
    lids = _bulk_load_two_level(scheme, 40)
    latch = CountingLatch()
    service = ShardedLabelService([scheme], log_capacity=1, group_size=1, latches=[latch])
    session = service.session()
    for _ in range(3):
        service.apply_ops_sync([BatchOp("insert_element_before", (lids[3],))])
    return scheme, service, session, latch, lids


def assert_counted_once_each(service, reads):
    counters = service.shards[0].stats.snapshot()
    assert counters.reads == reads, counters
    assert counters.reads == (
        counters.fresh_hits + counters.replay_hits + counters.fallthrough_reads
    ), counters
    assert counters.reads == counters.lag_samples, counters
    assert counters.max_epoch_lag == 3, counters


def test_cold_lookup_many_takes_the_shared_latch_once():
    scheme, service, session, latch, lids = lagging_service()
    try:
        wanted = lids[:64]
        values = session.lookup_many(wanted)
        assert latch.shared == 1
        assert values == [scheme.lookup(lid) for lid in wanted]
        assert session.vector.numbers == service.current_epoch_vector.numbers
        assert_counted_once_each(service, 64)
        assert service.shards[0].stats.fallthrough_reads == 64
    finally:
        service.close()


def test_cold_is_ancestor_takes_the_shared_latch_once():
    scheme, service, session, latch, lids = lagging_service()
    try:
        root, child = (lids[0], lids[-1]), (lids[1], lids[2])
        assert session.is_ancestor(root, child)
        assert latch.shared == 1
        assert_counted_once_each(service, 4)
    finally:
        service.close()


def _loops(function) -> int:
    tree = ast.parse(textwrap.dedent(inspect.getsource(function)))
    return sum(isinstance(node, (ast.While, ast.For)) for node in ast.walk(tree))


def _reads_the_primitive_state(function) -> bool:
    source = inspect.getsource(function)
    return any(word in source for word in ("_refs", "acquire_shared", "stats.add"))


def test_one_read_path():
    owners = {"resolve", "_read_through", "_refuse_if_degraded", "__init__"}
    readers = {
        name
        for name, member in vars(ReaderSession).items()
        if inspect.isfunction(member) and _reads_the_primitive_state(member)
    }
    assert readers <= owners, readers - owners
    # No pin-movement retry above the primitive: the sharded session makes
    # one resolve per shard group, and the query view retries only on a
    # catalog that moved under a dead LID.
    assert _loops(ShardedReaderSession.lookup_many) == 1  # the grouping pass
    assert _loops(QueryEngine.view) == 1  # the catalog retry
