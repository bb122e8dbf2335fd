"""Deterministic interleaving sweeps over the *sharded* label service.

The unsharded sweeps (:mod:`tests.conc.test_interleavings`) pin the
single-service invariant: every read agrees with the epoch its session
is pinned to.  Sharding generalizes the pin to an **epoch vector** — one
independently published component per shard — and the reader invariant
becomes per-component:

    for every glid returned by lookup_many,
    value == oracle[shard(glid)][vector[shard(glid)].number][glid]

where each shard's oracle row is captured by that shard's ``epoch_hook``
while its writer still holds the shard's exclusive latch.  The sweep
runs a reader whose ``lookup_many`` spans both shards while BOTH shard
writers commit, under every interleaving of the coarse preemption
points.  A violation would mean a torn vector: a value served from an
epoch other than the component the session ended up pinned to.
"""

from __future__ import annotations

from repro import BatchOp, TINY_CONFIG, WBox
from repro.service import ShardedLabelService, bulk_load_sharded

from .scheduler import SchedulerLatch, explore

COARSE = {"read:begin", "write:publish"}

N_SHARDS = 2
BASE = 8  # 4 glids per shard


def build_world(scheduler):
    """Fresh 2-shard world + per-shard epoch oracles for one schedule."""
    schemes = [WBox(TINY_CONFIG) for _ in range(N_SHARDS)]
    glids = bulk_load_sharded(schemes, BASE)
    by_shard = [
        [g for g in glids if g % N_SHARDS == shard] for shard in range(N_SHARDS)
    ]
    histories: list[dict[int, dict[int, object]]] = [{} for _ in range(N_SHARDS)]

    def recorder(shard):
        def record(epoch) -> None:
            # Runs under shard `shard`'s exclusive latch: this row is the
            # exact truth of that shard's component `epoch.number`.
            histories[shard][epoch.number] = {
                g: schemes[shard].lookup(g // N_SHARDS) for g in by_shard[shard]
            }

        return record

    service = ShardedLabelService(
        schemes,
        group_size=1,
        latches=[SchedulerLatch(scheduler) for _ in range(N_SHARDS)],
        yield_hook=scheduler.yield_point,
        epoch_hooks=[recorder(shard) for shard in range(N_SHARDS)],
    )
    for shard, inner in enumerate(service.shards):
        recorder(shard)(inner.current_epoch)
    return service, glids, by_shard, histories


def make_spanning_reader(service, glids, histories, rounds):
    """Reader actor: each round is one ``lookup_many`` spanning BOTH
    shards, checked against the per-shard oracle row of the vector
    component the session ended the round pinned to."""
    session = service.session()

    def run() -> None:
        last = [component.number for component in session.vector]
        for _ in range(rounds):
            values = session.lookup_many(glids)
            vector = session.vector
            for glid, value in zip(glids, values):
                shard = glid % N_SHARDS
                pin = vector[shard].number
                truth = histories[shard][pin][glid]
                assert value == truth, (
                    f"torn vector: lookup_many({glid}) = {value!r} but "
                    f"shard {shard} epoch {pin} truth is {truth!r}"
                )
            numbers = [component.number for component in vector]
            assert all(n >= p for n, p in zip(numbers, last)), (
                f"vector went backwards: {last} -> {numbers}"
            )
            last = numbers

    return run


def make_shard_writer(service, anchor, count):
    def run() -> None:
        for _ in range(count):
            service.apply_ops_sync([BatchOp("insert_before", (anchor,))])

    return run


def test_spanning_reader_during_concurrent_shard_commits():
    """The headline sharded sweep: one reader spanning both shards via
    lookup_many while BOTH shard writers publish, every interleaving of
    the coarse preemption points.  Inserts land before tracked glids, so
    a value served from the wrong epoch component is visible."""
    violations = []

    def setup(scheduler):
        service, glids, by_shard, histories = build_world(scheduler)
        # One tracked glid per shard: the spanning read still crosses
        # both shards, but the schedule space stays enumerable.
        span = [by_shard[0][2], by_shard[1][2]]
        scheduler.spawn(
            "reader", make_spanning_reader(service, span, histories, rounds=2)
        )
        scheduler.spawn(
            "writer-0", make_shard_writer(service, by_shard[0][1], count=2)
        )
        scheduler.spawn(
            "writer-1", make_shard_writer(service, by_shard[1][1], count=2)
        )
        return None

    executed = explore(setup, preempt_on=COARSE)
    # Reader: >= 2 read decisions per round x 2 rounds; writers: 2
    # publishes each.  The multinomial over (4, 2, 2) actor steps alone
    # is 420; a collapse below that means the sweep stopped preempting.
    assert executed >= 420, executed
    assert violations == []


def test_vector_components_move_independently():
    """Across the sweep, schedules exist where the two components of the
    reader's final vector differ — i.e. the sweep genuinely observes
    shards publishing independently, not in lockstep."""
    seen_vectors: set[tuple[int, ...]] = set()

    def setup(scheduler):
        service, glids, by_shard, histories = build_world(scheduler)
        session = service.session()

        def read() -> None:
            session.lookup_many(glids)
            seen_vectors.add(tuple(c.number for c in session.vector))

        scheduler.spawn("reader", read)
        scheduler.spawn(
            "writer-0", make_shard_writer(service, by_shard[0][1], count=1)
        )
        scheduler.spawn(
            "writer-1", make_shard_writer(service, by_shard[1][1], count=1)
        )
        return None

    explore(setup, preempt_on=COARSE)
    assert len(seen_vectors) >= 3, seen_vectors
    skews = {v for v in seen_vectors if len(set(v)) > 1}
    assert skews, f"components never skewed: {seen_vectors}"
