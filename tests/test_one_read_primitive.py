"""A session read is one ``ReaderSession.resolve``: one pass, one latch hold.

Every session read — ``lookup``, ``lookup_pair``, ``compare``,
``compare_many``, ``is_ancestor`` and ``lookup_many`` — resolves its whole
LID set at once, through ``ShardedReaderSession.lookup_many``, the one
routed read.  The LIDs the pinned log cannot serve are read from the BOX
under a single shared-latch hold, however many there are, and the read is
counted in one ``add``.  These tests count the latch acquisitions of cold
reads on a session whose pin lags, and guard that the retry loops and the
hand-routed reads stay gone, and that Section 6's rule is written once:
``resolve`` and ``CachedLabelStore.get`` both serve refs through
``serve_refs``.
"""

from __future__ import annotations

import ast
import inspect
import textwrap

from repro import TINY_CONFIG, BatchOp, CachedLabelStore, WBox
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


def test_cold_compare_many_takes_the_shared_latch_once():
    scheme, service, session, latch, lids = lagging_service()
    try:
        pairs = [(lids[index], lids[index + 10]) for index in (1, 12, 5, 30)]
        signs = session.compare_many(pairs)
        assert latch.shared == 1
        labels = [(scheme.lookup(a), scheme.lookup(b)) for a, b in pairs]
        assert signs == [(a > b) - (a < b) for a, b in labels]
        assert_counted_once_each(service, 8)
        assert service.shards[0].stats.fallthrough_reads == 8
    finally:
        service.close()


def _loops(function) -> int:
    tree = ast.parse(textwrap.dedent(inspect.getsource(function)))
    return sum(isinstance(node, (ast.While, ast.For)) for node in ast.walk(tree))


def _reads_the_primitive_state(function) -> bool:
    source = inspect.getsource(function)
    return any(word in source for word in ("_refs", "acquire_shared", "stats.add"))


def _routes_a_read(function) -> bool:
    """Whether ``function`` calls ``resolve`` or picks a shard's session."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(function)))
    return any(
        (isinstance(node, ast.Attribute) and node.attr == "resolve")
        or (
            isinstance(node, ast.Subscript)
            and isinstance(node.value, ast.Attribute)
            and node.value.attr == "_sessions"
        )
        for node in ast.walk(tree)
    )


def _methods(kind) -> dict:
    return {name: member for name, member in vars(kind).items() if inspect.isfunction(member)}


def test_one_read_path():
    owners = {"resolve", "_read_through", "_refuse_if_degraded", "__init__"}
    readers = {
        name
        for name, member in _methods(ReaderSession).items()
        if _reads_the_primitive_state(member)
    }
    assert readers <= owners, readers - owners
    # A per-shard session has one read; order and ancestry are label
    # arithmetic one layer up.
    public = {name for name in _methods(ReaderSession) if not name.startswith("_")}
    assert public == {"resolve", "refresh"}, public
    # The sharded session routes in one place: every other read is label
    # arithmetic over one lookup_many.
    routed = {
        name for name, member in _methods(ShardedReaderSession).items() if _routes_a_read(member)
    }
    assert routed == {"lookup_many"}, routed
    # No pin-movement retry above the primitive: the sharded session makes
    # one resolve per shard group, and the query view retries only on a
    # catalog that moved under a dead LID.
    assert _loops(ShardedReaderSession.lookup_many) == 1  # the grouping pass
    assert _loops(QueryEngine.view) == 1  # the catalog retry


def _calls(function) -> set[str]:
    """The names ``function`` calls, bare or as an attribute."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(function)))
    return {
        node.func.attr if isinstance(node.func, ast.Attribute) else node.func.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, (ast.Attribute, ast.Name))
    }


def test_both_front_ends_serve_refs_through_the_one_rule():
    for read in (ReaderSession.resolve, CachedLabelStore.get):
        calls = _calls(read)
        assert "serve_refs" in calls, read.__qualname__
        assert "replay" not in calls, read.__qualname__
