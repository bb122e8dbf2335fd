"""``BlockStore`` scopes: a nested scope is only a depth bump, an exception
leaves exactly what it always left, and a cost is a plain tuple.

``operation()``, ``measured()``, ``durable()`` and ``taped()`` run once
per logical operation or batch, so they are slotted context managers
whose nested form does nothing but count depth.  Only the outermost
operation scope opens the ``store.operation`` span, flushes and commits;
only the outermost durable scope commits, also with an exception in
flight; only the outermost taped scope adds its row.  These tests pin
those rules, on the memory and the page-file backend, together with
:class:`~repro.storage.stats.OperationCost`'s tuple semantics.
"""

from __future__ import annotations

import sys
import threading
from contextlib import nullcontext

import pytest

from repro.config import TINY_CONFIG
from repro.errors import LabelingError, StorageError
from repro.obs import trace
from repro.storage import BlockStore, OperationCost
from repro.storage.backend import MemoryBackend
from repro.storage.filebackend import FileBackend


class RecordingBackend(MemoryBackend):
    """A memory backend that keeps each commit's blocks and tape outcomes,
    and raises ``fail`` from the next commit when it is set."""

    def __init__(self) -> None:
        super().__init__()
        self.log: list[tuple[list[int], list[str] | None]] = []
        self.fail: BaseException | None = None

    def commit(self, dirty_ids, tape=None) -> None:
        if self.fail is not None:
            error, self.fail = self.fail, None
            raise error
        self.commits += 1
        self.log.append((sorted(dirty_ids), None if tape is None else [e for _r, e in tape]))


@pytest.fixture(params=["memory", "file"])
def store(request, tmp_path):
    backend = MemoryBackend() if request.param == "memory" else FileBackend(
        str(tmp_path / "s.pages")
    )
    yield BlockStore(TINY_CONFIG, backend=backend)
    backend.close()


@pytest.fixture
def recorded():
    return BlockStore(TINY_CONFIG, backend=RecordingBackend())


@pytest.fixture
def tracer():
    tracer = trace.Tracer(enabled=True)
    previous = trace.set_tracer(tracer)
    yield tracer
    trace.set_tracer(previous)


def state(store: BlockStore) -> tuple:
    """What a scope's exit may change: counted I/O, the open operation's
    buffers and depth, and the backend's commits."""
    buffer = store.buffer
    return (
        store.stats.counts(),
        sorted(buffer.read),
        sorted(buffer.dirty),
        buffer.depth,
        store.backend.commits,
    )


def counts_commits(store: BlockStore) -> int:
    """1 when the backend counts its commits (the memory backend does not)."""
    return isinstance(store.backend, FileBackend)


def names(root) -> list[str]:
    return [span.name for span in root.walk()]


class Boom(Exception):
    pass


# ----------------------------------------------------------------------
# nested scopes
# ----------------------------------------------------------------------


def test_nested_operation_opens_no_span_and_neither_flushes_nor_commits(store, tracer):
    block = store.allocate([1])
    with trace.span("test.root"):
        with store.operation() as stats:
            assert stats is store.stats
            store.read(block)
            with store.operation():
                store.write(block, [2])
                other = store.allocate([3])
                inside = state(store)
            # the inner exit changed nothing but the depth
            assert state(store) == inside[:3] + (1, inside[4])
            assert store.buffer.dirty == {block, other}
        assert state(store)[1:] == ([], [], 0, inside[4] + counts_commits(store))
    root = tracer.take()
    assert names(root).count("store.operation") == 1
    assert names(root).count("store.commit") == 1
    (operation,) = root.children
    assert operation.annotations == {"io.reads": 1, "io.writes": 2}


def test_nested_measured_and_durable_open_no_span(store, tracer):
    block = store.allocate([1])
    with trace.span("test.root"):
        with store.durable(), store.measured() as outer:
            with store.durable(), store.measured() as inner:
                store.write(block, [2])
            commits = store.backend.commits
        # the outermost durable exit commits, once
        assert store.backend.commits == commits + counts_commits(store)
    assert names(tracer.take())[:3] == ["test.root", "store.operation", "store.commit"]
    assert (inner.reads, inner.writes) == (0, 0)  # the outer scope holds the write
    assert outer.cost == (0, 1)


def test_measured_inside_an_operation_reports_only_its_own_delta(store):
    blocks = [store.allocate([i]) for i in range(4)]
    with store.operation():
        store.read(blocks[0])
        with store.measured() as first:
            store.read(blocks[0])  # buffered by the outer scope: free
            store.read(blocks[1])
        with store.measured() as second:
            store.read(blocks[2])
            store.read(blocks[3])
            store.write(blocks[3])  # counted at the outermost exit
    assert first.cost == OperationCost(1, 0)
    assert second.cost == OperationCost(2, 0)
    assert store.stats.reads == 4


def test_cost_is_unreadable_until_the_scope_exits(store):
    with store.measured() as cost:
        with pytest.raises(StorageError):
            cost.total
    assert cost.total == 0


def test_threads_share_the_scope_objects_but_not_their_buffers():
    """One ``operation()`` object serves every thread; each thread's open
    operation is its own buffer, so no thread's read is made free, or its
    buffer flushed, by another's."""
    store = BlockStore(TINY_CONFIG)
    threads, rounds = 6, 300
    blocks = [store.allocate([i]) for i in range(threads)]
    store.stats.reset()
    errors: list[BaseException] = []

    def work(block: int) -> None:
        try:
            for _ in range(rounds):
                with store.operation():
                    store.read(block)
                    with store.measured():
                        store.read(block)  # buffered by this thread's operation
                        store.write(block)
                assert store.buffer.depth == 0
        except BaseException as error:  # noqa: BLE001 — reported below
            errors.append(error)

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=work, args=(block,)) for block in blocks]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
    finally:
        sys.setswitchinterval(previous)
    assert not any(worker.is_alive() for worker in workers)
    assert errors == []
    assert store.operation() is store.operation()
    assert store.stats.snapshot() == (threads * rounds, threads * rounds)


# ----------------------------------------------------------------------
# exceptions
# ----------------------------------------------------------------------


def test_exception_from_a_nested_scope_caught_inside_flushes_nothing(store):
    blocks = [store.allocate([i]) for i in range(2)]
    with store.operation():
        with pytest.raises(Boom):
            with store.operation():
                store.read(blocks[0])
                store.write(blocks[1], [9])
                raise Boom
        stats, read, dirty, depth, commits = state(store)
        assert (read, dirty, depth) == ([blocks[0]], [blocks[1]], 1)
        assert (stats.reads, stats.writes) == (1, 2)  # the two allocations only
    after = state(store)
    assert (after[0].reads, after[0].writes) == (1, 3)
    assert after[1:4] == ([], [], 0)
    assert after[4] == commits + counts_commits(store)


@pytest.mark.parametrize("nested", [False, True], ids=["outermost", "nested"])
def test_exception_leaving_every_scope_still_flushes_and_commits(store, nested):
    blocks = [store.allocate([i]) for i in range(3)]
    commits = store.backend.commits
    with pytest.raises(Boom):
        with store.operation():
            store.read(blocks[0])
            store.write(blocks[1], [7])
            if nested:
                with store.operation():
                    store.write(blocks[2], [8])
                    raise Boom
            raise Boom
    stats, read, dirty, depth, after = state(store)
    assert (stats.reads, stats.writes) == (1, 3 + 1 + nested)
    assert (read, dirty, depth) == ([], [], 0)
    assert after == commits + counts_commits(store)
    assert store.backend.read(blocks[1]) == [7]


@pytest.mark.parametrize("nested", [False, True], ids=["outermost", "nested"])
def test_measured_scope_unwinds_and_keeps_its_cost_on_an_exception(store, nested):
    blocks = [store.allocate([i]) for i in range(2)]
    with pytest.raises(Boom):
        with store.measured() as outer:
            store.read(blocks[0])
            if nested:
                with store.measured() as inner:
                    store.write(blocks[1])
                    raise Boom
            store.write(blocks[1])
            raise Boom
    assert outer.cost == (1, 1)
    if nested:
        assert inner.cost == (0, 0)
    assert state(store)[1:4] == ([], [], 0)


def test_durable_commits_once_with_an_exception_in_flight(recorded):
    block = recorded.allocate([1])
    recorded.backend.log.clear()
    with pytest.raises(Boom):
        with recorded.durable():
            with recorded.operation():
                recorded.write(block, [2])
            with recorded.durable():
                with recorded.operation():
                    other = recorded.allocate([3])
                raise Boom
    # dirtied outside every taped scope: one commit, without a tape
    assert recorded.backend.log == [(sorted([block, other]), None)]
    assert recorded.buffer.pending == set() and recorded.buffer.tape == []


def test_durable_commit_that_raises_leaves_its_set_pending(recorded):
    block = recorded.allocate([1])
    recorded.backend.log.clear()
    recorded.backend.fail = OSError("disk gone")
    with pytest.raises(OSError):
        with recorded.durable(), recorded.taped(lambda outcome: b""):
            with recorded.operation():
                recorded.write(block, [2])
    assert recorded.buffer.pending == {block}
    assert recorded.backend.log == []
    with recorded.durable():
        pass
    assert recorded.backend.log == [([block], None)]  # re-committed without a tape


@pytest.mark.parametrize(
    "error, ended",
    [(None, ""), (LabelingError("refused"), "LabelingError"), (KeyError(5), "KeyError")],
    ids=["ok", "labeling-error", "lookup-error"],
)
def test_outermost_taped_scope_adds_one_row_with_how_it_ended(recorded, error, ended):
    block = recorded.allocate([1])
    recorded.backend.log.clear()
    with pytest.raises(type(error)) if error else nullcontext():
        with recorded.durable(), recorded.taped(lambda outcome: b"outer"):
            with recorded.taped(lambda outcome: b"inner"):  # the outer re-runs it
                with recorded.operation():
                    recorded.write(block, [2])
                if error is not None:
                    raise error
    assert recorded.backend.log == [([block], [ended])]
    assert recorded.buffer.taping == 0


@pytest.mark.parametrize("nested", [False, True], ids=["outermost", "nested"])
def test_unreplayable_error_in_a_taped_scope_drops_the_tape(recorded, nested):
    block = recorded.allocate([1])
    recorded.backend.log.clear()
    with pytest.raises(Boom):
        with recorded.durable(), recorded.taped(lambda outcome: b"outer"):
            with recorded.operation():
                recorded.write(block, [2])
            if nested:
                with recorded.taped(lambda outcome: b"inner"):
                    raise Boom
            raise Boom
    assert recorded.backend.log == [([block], None)]


# ----------------------------------------------------------------------
# OperationCost
# ----------------------------------------------------------------------


def test_operation_cost_is_an_immutable_tuple():
    cost = OperationCost(3, 2)
    assert cost == (3, 2) and tuple(cost) == (3, 2)
    assert (cost.reads, cost.writes, cost.total) == (3, 2, 5)
    reads, writes = cost
    assert (reads, writes) == (3, 2)
    with pytest.raises(AttributeError):
        cost.reads = 4
    with pytest.raises(TypeError):
        cost[0] = 4
    assert hash(cost) == hash((3, 2))


def test_operation_cost_arithmetic_returns_operation_costs():
    total = OperationCost(3, 2) + OperationCost(1, 4)
    delta = OperationCost(3, 2) - OperationCost(1, 1)
    assert type(total) is OperationCost and total == (4, 6)
    assert type(delta) is OperationCost and delta == (2, 1)
    assert type(OperationCost(1, 1) + (2, 3)) is OperationCost


def test_stats_snapshot_is_an_operation_cost(store):
    block = store.allocate([1])
    before = store.stats.snapshot()
    with store.operation():
        store.read(block)
        store.write(block)
    after = store.stats.snapshot()
    assert type(before) is OperationCost
    assert after - before == (1, 1)
