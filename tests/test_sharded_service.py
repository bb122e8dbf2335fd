"""The sharded label service: routing, epoch vectors, N=1 degeneration.

Covers the layers bottom-up: the routing functions in
:mod:`repro.service.router`, the :class:`ShardRouter` glid codec, sharded
bulk load, the :class:`ShardedLabelService` write/read paths against an
unsharded oracle, the writer draining the queue into one commit, the
sharded on-disk layout and its persistence round-trip, shard-labeled
metrics, and the one invariant everything else leans on: a 1-shard
service is byte-identical on disk to the plain ``LabelService`` stack.
"""

from __future__ import annotations

import os
import threading
import time

import pytest

from repro import TINY_CONFIG, BatchOp, WBox, persist
from repro.core import BatchRef
from repro.core.registry import scheme_factory
from repro.errors import CrossShardError, PersistError, ServiceError
from repro.obs import get_registry
from repro.persist import (
    checkpoint_scheme,
    create_sharded_backends,
    create_store,
    open_file_scheme,
    open_store,
)
from repro.service import (
    EpochVector,
    LabelService,
    ShardedLabelService,
    ShardRouter,
    bulk_load_sharded,
)
from repro.service.router import ShardRouting, route_ops
from repro.storage import (
    BlockStore,
    FileBackend,
    is_sharded_root,
    read_manifest,
    shard_page_path,
)
from repro.storage.blockstore import ReaderWriterLatch

from .test_one_commit_per_wakeup import submit_behind_held_latch


def make_sharded(n_shards, count=24, **service_kwargs):
    schemes = [WBox(TINY_CONFIG) for _ in range(n_shards)]
    glids = bulk_load_sharded(schemes, count)
    return schemes, glids, ShardedLabelService(schemes, **service_kwargs)


# ---------------------------------------------------------------------------
# glid codec + routing
# ---------------------------------------------------------------------------


def test_router_codec_round_trips():
    router = ShardRouter(4)
    for glid in range(100):
        shard = router.shard_of(glid)
        local = router.to_local(glid)
        assert 0 <= shard < 4
        assert router.to_global(local, shard) == glid


def test_router_n1_is_identity():
    router = ShardRouter(1)
    for glid in (0, 1, 7, 12345):
        assert router.shard_of(glid) == 0
        assert router.to_local(glid) == glid
        assert router.to_global(glid, 0) == glid


def test_split_bulk_is_near_even_and_exact():
    router = ShardRouter(3)
    for count in (0, 1, 2, 3, 7, 100):
        chunks = router.split_bulk(count)
        assert len(chunks) == 3
        assert sum(chunks) == count
        assert max(chunks) - min(chunks) <= 1


def test_route_ops_partitions_by_lid_argument():
    # glid % 2: even -> shard 0, odd -> shard 1.
    ops = [
        BatchOp("lookup", (4,)),
        BatchOp("lookup", (7,)),
        BatchOp("insert_before", (10,)),
    ]
    router = ShardRouter(2)
    routing = route_ops(ops, router)
    assert isinstance(routing, ShardRouting)
    assert routing.op_shard == [0, 1, 0]
    # Args are localized: glid 7 -> local 3 on shard 1.
    assert routing.per_shard[1][0].args == (3,)
    merged = router.merge(routing, {0: ["a", 7], 1: ["b"]})
    assert merged == ["a", "b", 14]  # the insert's local LID 7 on shard 0


def test_route_ops_follows_refs_to_the_referenced_ops_shard():
    # Op 1 references op 0's result; both must land on op 0's shard, and
    # the ref index must be rewritten to the shard-local position.
    ops = [
        BatchOp("insert_before", (6,)),
        BatchOp("insert_before", (BatchRef(0),)),
    ]
    routing = route_ops(ops, ShardRouter(2))
    assert routing.op_shard == [0, 0]
    (first, second) = routing.per_shard[0]
    assert isinstance(second.args[0], BatchRef)
    assert second.args[0].index == 0


def test_route_ops_rejects_cross_shard_pairs():
    with pytest.raises(CrossShardError):
        route_ops([BatchOp("compare", (4, 7))], ShardRouter(2))


def test_globalize_results_maps_lids_back():
    ops = [BatchOp("insert_before", (1,)), BatchOp("lookup", (0,))]
    router = ShardRouter(2)
    out = router.merge(router.route(ops), {1: [5], 0: [123]})
    # insert_before yields a lid (local 5 on shard 1 -> glid 11); lookup
    # yields a raw value, passed through untouched.
    assert out == [11, 123]


# ---------------------------------------------------------------------------
# sharded bulk load + service round trips
# ---------------------------------------------------------------------------


def test_bulk_load_sharded_chunks_in_document_order():
    schemes = [WBox(TINY_CONFIG) for _ in range(2)]
    glids = bulk_load_sharded(schemes, 10)
    assert len(glids) == 10
    # First chunk on shard 0 (even glids), second on shard 1 (odd).
    assert all(g % 2 == 0 for g in glids[:5])
    assert all(g % 2 == 1 for g in glids[5:])
    # Each shard really holds its chunk.
    assert schemes[0].lookup(0) is not None


@pytest.mark.parametrize("count, n_shards", [(25, 1), (512, 3), (2000, 3), (24, 2)])
@pytest.mark.parametrize(
    "scheme_name", ["wbox", "wboxo", "bbox", "naive-8", "ancestry", "ancestry-dyn"]
)
def test_bulk_load_sharded_loads_every_scheme_at_any_chunk_parity(
    scheme_name, count, n_shards
):
    """Odd chunks (512 over 3 shards splits 171/171/170) load on every CLI
    scheme.  Only a scheme that demands a pairing is handed one — W-BOX-O,
    sibling pairs, an odd chunk's last tag unpaired — so every other
    scheme holds exactly what a plain ``bulk_load(chunk)`` gives it."""
    factory = scheme_factory(scheme_name)
    schemes = [factory(TINY_CONFIG, None) for _ in range(n_shards)]
    glids = bulk_load_sharded(schemes, count)
    assert len(glids) == count
    chunks = ShardRouter(n_shards).split_bulk(count)
    for scheme, chunk in zip(schemes, chunks):
        assert scheme.label_count() == chunk
        if hasattr(scheme, "check_invariants"):
            scheme.check_invariants()
        locals_ = sorted(ShardRouter(n_shards).to_local(g) for g in glids[:chunk])
        del glids[:chunk]
        if scheme.bulk_needs_pairing:
            assert scheme_name == "wboxo"
            paired = [
                lid
                for lid in locals_
                if scheme.lookup_pair(lid, lid) != (scheme.lookup(lid),) * 2
            ]
            assert len(paired) == chunk // 2  # the start of every sibling pair
            continue
        plain = factory(TINY_CONFIG, None)
        assert plain.bulk_load(chunk) == locals_
        assert [scheme.lookup(lid) for lid in locals_] == [
            plain.lookup(lid) for lid in locals_
        ]
        if hasattr(scheme, "kind_of"):
            assert [scheme.kind_of(lid) for lid in locals_] == [
                plain.kind_of(lid) for lid in locals_
            ]
    # The loaded store serves: one insert per shard through the service.
    with ShardedLabelService(schemes) as service:
        for shard in range(n_shards):
            anchor = ShardRouter(n_shards).to_global(0, shard)
            service.submit_ops([BatchOp("insert_before", (anchor,))]).wait(10)


def test_sharded_service_matches_per_shard_twins():
    """The routed op tape is exactly equivalent to applying each shard's
    sub-tape directly to an independent twin scheme."""
    schemes, glids, service = make_sharded(2, count=12)
    twins = [WBox(TINY_CONFIG) for _ in range(2)]
    router = ShardRouter(2)
    for shard, chunk in enumerate(router.split_bulk(12)):
        twins[shard].bulk_load(chunk)

    # Concentrated inserts inside each chunk + lookups over everything.
    with service:
        for anchor_index in (2, 3, 8, 9):
            glid = glids[anchor_index]
            service.apply_ops_sync([BatchOp("insert_before", (glid,))])
            twins[glid % 2].insert_before(glid // 2)
        got = service.apply_ops_sync(
            [BatchOp("lookup", (g,)) for g in glids]
        ).results
    want = [twins[g % 2].lookup(g // 2) for g in glids]
    assert got == want


def test_submit_ops_ticket_reassembles_across_shards():
    schemes, glids, service = make_sharded(2, count=12)
    with service:
        ticket = service.submit_ops(
            [
                BatchOp("insert_before", (glids[2],)),   # shard 0
                BatchOp("insert_before", (glids[9],)),   # shard 1
                BatchOp("lookup", (glids[0],)),          # shard 0
            ],
            timeout=10,
        )
        result = ticket.wait(timeout=10)
    assert len(result.results) == 3
    # New glids carry their shard's residue.
    assert result.results[0] % 2 == 0
    assert result.results[1] % 2 == 1
    assert result.backend_commits == 0  # memory backend


def test_session_reads_and_cross_shard_semantics():
    schemes, glids, service = make_sharded(2, count=12)
    with service:
        session = service.session()
        values = session.lookup_many(glids)
        assert values == [session.lookup(g) for g in glids]
        # Document order across chunks == shard index order.
        assert session.compare(glids[0], glids[7]) == -1
        assert session.compare(glids[7], glids[0]) == 1
        assert session.compare(glids[0], glids[0]) == 0
        # Chunks are subtree-aligned: nothing on one shard is the
        # ancestor of anything on another.
        with pytest.raises(CrossShardError):
            session.lookup_pair(glids[0], glids[7])


class _GatedLatch(ReaderWriterLatch):
    """A store latch whose exclusive acquisition waits for ``gate`` — a
    writer stalled at its group-commit latch, on demand."""

    def __init__(self) -> None:
        super().__init__()
        self.gate = threading.Event()

    def acquire_exclusive(self) -> None:
        self.gate.wait(30)
        super().acquire_exclusive()


def test_ticket_timeout_bounds_the_whole_join_not_each_shard():
    """``wait(timeout)`` is one deadline across shards: shard 0 resolving
    late must not hand shard 1 a fresh full timeout."""
    schemes = [WBox(TINY_CONFIG) for _ in range(2)]
    glids = bulk_load_sharded(schemes, 8)
    latches = [_GatedLatch(), _GatedLatch()]
    service = ShardedLabelService(schemes, latches=latches).start()
    try:
        ticket = service.submit_ops(
            [BatchOp("insert_before", (glids[0],)), BatchOp("insert_before", (glids[-1],))]
        )
        # Shard 0 unblocks at 0.4 s; shard 1 stays stalled.
        release = threading.Timer(0.4, latches[0].gate.set)
        release.start()
        started = time.monotonic()
        with pytest.raises(TimeoutError):
            ticket.wait(0.5)
        elapsed = time.monotonic() - started
        release.join()
        # One deadline: ~0.5 s.  Per-shard timeouts would take >= 0.9 s.
        assert elapsed < 0.8
    finally:
        for latch in latches:
            latch.gate.set()
        service.close()


def test_epoch_vector_tracks_per_shard_publishes():
    schemes, glids, service = make_sharded(2, count=12)
    with service:
        start = service.current_epoch_vector
        assert isinstance(start, EpochVector)
        assert len(start) == 2
        service.apply_ops_sync([BatchOp("insert_before", (glids[2],))])
        service.apply_ops_sync([BatchOp("insert_before", (glids[3],))])
        after = service.current_epoch_vector
        # Only shard 0 moved.
        assert after.numbers[0] == start.numbers[0] + 2
        assert after.numbers[1] == start.numbers[1]
        assert after[1] is start[1]


def test_describe_reports_shard_layout():
    schemes, glids, service = make_sharded(2, count=12)
    with service:
        info = service.describe()
    assert info["n_shards"] == 2
    assert info["degraded_shards"] == []
    assert len(info["epoch_vector"]) == 2
    assert len(info["shards"]) == 2


def test_empty_schemes_rejected():
    with pytest.raises(ServiceError):
        ShardedLabelService([])


# ---------------------------------------------------------------------------
# one commit per writer wake-up (the writer drains the queue)
# ---------------------------------------------------------------------------


def test_drained_tickets_keep_positional_distinct_results():
    scheme = WBox(TINY_CONFIG)
    lids = scheme.bulk_load(12)
    service = LabelService(scheme, group_size=64)
    with service:
        epochs = service.current_epoch.number
        tickets = submit_behind_held_latch(
            service,
            scheme,
            [[BatchOp("insert_before", (lids[2],)), BatchOp("lookup", (BatchRef(0),))]
             for _ in range(6)],
        )
        results = [t.wait(timeout=10).results for t in tickets]
        # The gate's wake-up and one more: the six tickets shared an epoch.
        assert service.current_epoch.number == epochs + 2
    for result in results:
        assert len(result) == 2
        assert isinstance(result[0], int)
        assert result[1] is not None  # its BatchRef named its own insert
    flat = [r[0] for r in results]
    assert len(set(flat)) == len(flat)
    # Submission order is document order: each insert lands before lids[2].
    assert sorted(flat + [lids[2]], key=scheme.lookup) == flat + [lids[2]]


def test_drained_tickets_count_as_write_merges_in_describe():
    scheme = WBox(TINY_CONFIG)
    lids = scheme.bulk_load(8)
    service = LabelService(scheme)
    with service:
        tickets = submit_behind_held_latch(
            service, scheme, [[BatchOp("insert_before", (lids[2],))]] * 4
        )
        for ticket in tickets:
            ticket.wait(timeout=10)
        info = service.describe()
    assert info["write_merges"] == 3


# ---------------------------------------------------------------------------
# on-disk layout + persistence
# ---------------------------------------------------------------------------


def test_sharded_layout_round_trip(tmp_path):
    root = str(tmp_path / "root")
    schemes, glids = create_store(
        root, "wbox", 2, config=TINY_CONFIG, populate=lambda fresh: bulk_load_sharded(fresh, 10)
    )
    service = ShardedLabelService(schemes)
    with service:
        new_glid = service.apply_ops_sync(
            [BatchOp("insert_before", (glids[3],))]
        ).results[0]
    values = {g: schemes[g % 2].lookup(g // 2) for g in glids + [new_glid]}
    for scheme in schemes:
        checkpoint_scheme(scheme).close()

    assert is_sharded_root(root)
    manifest = read_manifest(root)
    assert manifest["n_shards"] == 2

    reopened = open_store(root)
    try:
        for glid, value in values.items():
            assert reopened[glid % 2].lookup(glid // 2) == value
    finally:
        for scheme in reopened:
            scheme.store.backend.close()


def test_create_store_refuses_an_existing_store_and_open_store_reopens_it(tmp_path):
    """Creating never appends: a non-empty file or directory is refused
    by name and left as it was; an empty directory is a fresh root.  One
    shard is a root too, and ``open_store`` reopens it or a bare file."""
    taken = tmp_path / "taken.pages"
    taken.write_bytes(b"x")
    (tmp_path / "full").mkdir()
    (tmp_path / "full" / "f").write_bytes(b"")
    for path in (taken, tmp_path / "full"):
        with pytest.raises(PersistError, match=str(path)):
            create_store(str(path), "wbox", config=TINY_CONFIG)
    assert taken.read_bytes() == b"x" and os.listdir(tmp_path / "full") == ["f"]

    root = tmp_path / "empty"
    root.mkdir()
    (scheme,), lids = create_store(
        str(root), "wbox", config=TINY_CONFIG, populate=lambda fresh: fresh[0].bulk_load(8)
    )
    labels = [scheme.lookup(lid) for lid in lids]
    checkpoint_scheme(scheme).close()
    assert read_manifest(str(root))["n_shards"] == 1
    for path in (root, shard_page_path(str(root), 0)):
        (reopened,) = open_store(str(path))
        assert [reopened.lookup(lid) for lid in lids] == labels
        reopened.store.backend.close()
    with pytest.raises(PersistError, match="already holds a store"):
        create_store(str(root), "wbox", config=TINY_CONFIG)


def test_open_store_closes_opened_shards_when_a_later_shard_fails(tmp_path, monkeypatch):
    """Shard 1's page file is garbage: the open raises, and shard 0,
    opened before it, has its page file and WAL closed again."""
    root = str(tmp_path / "root")
    schemes, _ = create_store(
        root, "wbox", 2, config=TINY_CONFIG, populate=lambda fresh: bulk_load_sharded(fresh, 10)
    )
    for scheme in schemes:
        scheme.store.backend.close()
    with open(shard_page_path(root, 1), "wb") as handle:
        handle.write(b"\xde\xad" * 64)
    opened = []

    def recording(path, **kwargs):
        opened.append(open_file_scheme(path, **kwargs))
        return opened[-1]

    monkeypatch.setattr(persist, "open_file_scheme", recording)
    with pytest.raises(Exception):
        persist.open_store(root)
    (shard0,) = opened
    backend = shard0.store.backend
    assert backend._handle.closed and backend._wal._handle is None


def test_read_manifest_rejects_missing_and_damaged_roots(tmp_path):
    with pytest.raises(PersistError):
        read_manifest(str(tmp_path / "nowhere"))
    root = str(tmp_path / "root")
    backends = create_sharded_backends(root, 2)
    for backend in backends:
        backend.close()
    shard_page_path(root, 1)
    os.unlink(shard_page_path(root, 1))
    with pytest.raises(PersistError):
        read_manifest(root)


def test_one_shard_is_byte_identical_to_plain_service(tmp_path):
    """The degeneration guarantee: N=1 sharding is a pure pass-through —
    same page-file bytes as the unsharded LabelService stack."""
    ops_for = lambda lids: (
        [BatchOp("insert_before", (lids[2],)) for _ in range(5)]
        + [BatchOp("delete", (lids[7],))]
    )
    plain_path = str(tmp_path / "plain.pages")
    backend = FileBackend(plain_path)
    scheme = WBox(TINY_CONFIG, store=BlockStore(TINY_CONFIG, backend=backend))
    checkpoint_scheme(scheme)
    lids = scheme.bulk_load(12)
    with LabelService(scheme) as plain:
        plain.apply_ops_sync(ops_for(lids))
    checkpoint_scheme(scheme)
    backend.close()

    root = str(tmp_path / "sharded")
    backends = create_sharded_backends(root, 1)
    schemes = [
        WBox(TINY_CONFIG, store=BlockStore(TINY_CONFIG, backend=backends[0]))
    ]
    checkpoint_scheme(schemes[0])
    glids = bulk_load_sharded(schemes, 12)
    assert glids == lids  # identity codec
    with ShardedLabelService(schemes) as sharded:
        sharded.apply_ops_sync(ops_for(glids))
    for scheme in schemes:
        checkpoint_scheme(scheme)
    backends[0].close()

    plain_bytes = open(plain_path, "rb").read()
    shard_bytes = open(shard_page_path(root, 0), "rb").read()
    assert plain_bytes == shard_bytes


# ---------------------------------------------------------------------------
# shard-labeled observability
# ---------------------------------------------------------------------------


def test_service_samples_carry_shard_labels():
    schemes, glids, service = make_sharded(2, count=12)
    with service:
        service.apply_ops_sync([BatchOp("insert_before", (glids[2],))])
        samples = get_registry().collect()
    by_label = {
        s.labels
        for s in samples
        if s.name == "repro_service_epochs_published_total"
    }
    assert (("shard", "shard0"),) in by_label
    assert (("shard", "shard1"),) in by_label


def test_unsharded_service_samples_stay_unlabeled():
    scheme = WBox(TINY_CONFIG)
    scheme.bulk_load(8)
    with LabelService(scheme) as service:
        service.apply_ops_sync([BatchOp("insert_before", (0,))])
        samples = get_registry().collect()
    unlabeled = [
        s
        for s in samples
        if s.name == "repro_service_epochs_published_total" and s.labels == ()
    ]
    assert unlabeled, "plain service lost its unlabeled sample group"


def test_io_samples_group_by_shard():
    schemes, glids, service = make_sharded(2, count=12)
    with service:
        service.apply_ops_sync([BatchOp("lookup", (glids[0],))])
        samples = get_registry().collect()
    labels = {s.labels for s in samples if s.name == "repro_io_reads_total"}
    assert (("shard", "shard0"),) in labels
    assert (("shard", "shard1"),) in labels
