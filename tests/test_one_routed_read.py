"""One routed session read: a batch of compares is one ``lookup_many``.

``ShardedReaderSession.compare_many`` decides cross-shard pairs by shard
index, reading nothing, and reads the same-shard pairs' LIDs in one
``lookup_many``: one ``ReaderSession.resolve`` per involved shard, all at
one pinned vector.  A ``Compare`` frame is one such call.  These tests
count the ``resolve`` calls a frame makes on 1 and 2 shards, and check
``compare_many`` against the schemes' own labels on 1 and 3 shards.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import TINY_CONFIG, BatchOp, WBox
from repro.net.client import NetClient
from repro.net.server import serve_in_thread
from repro.service import ReaderSession, ShardedLabelService
from repro.service.sharded import bulk_load_sharded


class CountingResolve:
    """Wraps ``ReaderSession.resolve`` and records the LIDs of each call."""

    def __init__(self, monkeypatch):
        self.calls: list[tuple[int, ...]] = []
        inner = ReaderSession.resolve

        def resolve(session, lids, *args, **kwargs):
            self.calls.append(tuple(lids))
            return inner(session, lids, *args, **kwargs)

        monkeypatch.setattr(ReaderSession, "resolve", resolve)


def sign(a, b) -> int:
    return (a > b) - (a < b)


def compare_over_the_wire(schemes, pairs, monkeypatch):
    """The ``Compare`` reply for ``pairs`` and the ``resolve`` calls it made."""
    service = ShardedLabelService(schemes).start()
    holder, thread = serve_in_thread(service)
    try:
        with NetClient("127.0.0.1", holder["server"].port) as client:
            counting = CountingResolve(monkeypatch)
            orders = client.compare(pairs, timeout=10)
            monkeypatch.undo()
    finally:
        holder["stop"]()
        thread.join(10)
        service.close()
    return list(orders), counting.calls


def test_a_compare_frame_is_one_resolve_on_one_shard(monkeypatch):
    scheme = WBox(TINY_CONFIG)
    lids = scheme.bulk_load(40)
    pairs = [(lids[3], lids[9]), (lids[20], lids[2]), (lids[7], lids[7]), (lids[30], lids[1])]
    orders, calls = compare_over_the_wire([scheme], pairs, monkeypatch)
    assert orders == [sign(scheme.lookup(a), scheme.lookup(b)) for a, b in pairs]
    assert calls == [tuple(lid for pair in pairs for lid in pair)]


def test_a_compare_frame_is_one_resolve_per_involved_shard(monkeypatch):
    schemes = [WBox(TINY_CONFIG), WBox(TINY_CONFIG)]
    glids = bulk_load_sharded(schemes, 40)
    first, second = glids[:20], glids[20:]  # shard 0's chunk, then shard 1's
    pairs = [
        (first[3], first[9]),
        (second[4], second[1]),
        (first[12], second[0]),  # cross-shard: answered by shard index
        (first[15], first[2]),
    ]
    orders, calls = compare_over_the_wire(schemes, pairs, monkeypatch)
    assert orders == [-1, 1, -1, 1]
    # Shard 0 reads its two pairs' LIDs, shard 1 its one pair's; the
    # cross-shard pair reads nothing.
    assert sorted(map(len, calls)) == [2, 4]


def build(n_shards: int, inserts: int):
    schemes = [WBox(TINY_CONFIG) for _ in range(n_shards)]
    glids = bulk_load_sharded(schemes, 24 * n_shards)
    service = ShardedLabelService(schemes, group_size=1)
    for index in range(inserts):
        anchor = glids[(7 * index) % len(glids)]
        glids += service.apply_ops_sync([BatchOp("insert_before", (anchor,))]).results
    return schemes, glids, service


@settings(max_examples=40, deadline=None)
@given(
    n_shards=st.sampled_from([1, 3]),
    inserts=st.integers(0, 6),
    picks=st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 10**6)), max_size=8),
)
def test_compare_many_is_the_sign_of_the_scheme_labels(n_shards, inserts, picks):
    schemes, glids, service = build(n_shards, inserts)
    try:
        router = service.router
        session = service.session()
        pairs = [(glids[a % len(glids)], glids[b % len(glids)]) for a, b in picks]

        def key(glid):
            shard = router.shard_of(glid)
            return shard, schemes[shard].lookup(router.to_local(glid))

        before = sum(shard.stats.reads for shard in service.shards)
        assert session.compare_many(pairs) == [sign(key(a), key(b)) for a, b in pairs]
        same_shard = sum(router.shard_of(a) == router.shard_of(b) for a, b in pairs)
        assert sum(shard.stats.reads for shard in service.shards) - before == 2 * same_shard
    finally:
        service.close()
