"""Bottom-up B-BOX label reconstruction over a set of LIDs.

``BBox.lookup_many`` materializes a whole group's labels (or, on the
ordinal channel, document positions) in one pass by memoizing each
node's value for the path above it, so k lookups walk each distinct
internal node once instead of once per anchored LID.  The contract these
tests pin:

* results equal the scalar per-LID loop, on any tree shape;
* the logical I/O count never *increases* versus the scalar loop (the
  memo can only remove block reads);
* ``BatchExecutor`` sends every lookup run to ``lookup_many``, with
  byte-for-byte identical results and identical per-group measured I/O,
  runs irregular ops (BatchRefs into unfilled slots, mixed kinds) one by
  one, and executes the same calls whether or not a trace is recorded;
* the ``_pos_index`` position cache that makes ``index_of`` O(1) is
  dropped on ``touch()`` and validated by ``check_invariants``.
"""

import pytest

from repro import BatchExecutor, BatchOp, BatchRef, BBox
from repro.config import TINY_CONFIG
from repro.core.bbox.node import BNode
from repro.core.cachelog import ORDINAL_CHANNEL
from repro.core.kernels import position_index
from repro.errors import InvariantViolation, RecordNotFoundError, UnknownLIDError


def churn(scheme, lids, seed=0):
    """Deterministic insert/delete churn to de-uniform the tree shape."""
    import random

    rng = random.Random(seed)
    for _ in range(60):
        anchor = lids[rng.randrange(len(lids))]
        if rng.random() < 0.75 or len(lids) < 8:
            lids.append(scheme.insert_before(anchor))
        else:
            victim = lids.pop(rng.randrange(len(lids)))
            if victim == anchor and not lids:
                continue
            scheme.delete(victim)
    return lids


@pytest.fixture(params=[False, True], ids=["bbox", "bbox-o"])
def scheme(request):
    scheme = BBox(TINY_CONFIG, ordinal=request.param)
    return scheme


def test_batch_lookup_matches_scalar(scheme):
    lids = churn(scheme, scheme.bulk_load(40))
    scalar = [scheme.lookup(lid) for lid in lids]
    assert scheme.lookup_many(lids) == scalar
    # Duplicates and arbitrary order are fine — it is a read-only batch.
    shuffled = lids[::-1] + lids[:5]
    assert scheme.lookup_many(shuffled) == [scheme.lookup(lid) for lid in shuffled]


def test_batch_ordinal_lookup_matches_scalar(scheme):
    lids = churn(scheme, scheme.bulk_load(40))
    if not scheme.ordinal:
        from repro.errors import OrdinalUnsupportedError

        with pytest.raises(OrdinalUnsupportedError):
            scheme.lookup_many(lids, ORDINAL_CHANNEL)
        return
    scalar = [scheme.ordinal_lookup(lid) for lid in lids]
    assert scheme.lookup_many(lids, ORDINAL_CHANNEL) == scalar


def test_batch_lookup_never_reads_more(scheme):
    lids = churn(scheme, scheme.bulk_load(60), seed=3)
    before = scheme.stats.reads
    [scheme.lookup(lid) for lid in lids]
    scalar_reads = scheme.stats.reads - before

    before = scheme.stats.reads
    scheme.lookup_many(lids)
    batch_reads = scheme.stats.reads - before
    assert batch_reads <= scalar_reads


def test_batch_lookup_empty_and_single(scheme):
    lids = scheme.bulk_load(5)
    assert scheme.lookup_many([]) == []
    assert scheme.lookup_many([lids[2]]) == [scheme.lookup(lids[2])]


def test_batch_lookup_unknown_lid(scheme):
    """Same exception surface as the scalar path: an unallocated LID dies
    in the LIDF, a freed LID dies in the leaf probe."""
    lids = scheme.bulk_load(5)
    with pytest.raises(RecordNotFoundError):
        scheme.lookup_many([999_999])
    victim = lids[2]
    scheme.delete(victim)
    try:
        scheme.lookup(victim)
    except (RecordNotFoundError, UnknownLIDError) as scalar_error:
        with pytest.raises(type(scalar_error)):
            scheme.lookup_many([victim])


@pytest.mark.parametrize("channel", ["label", ORDINAL_CHANNEL])
def test_lookup_many_walks_each_node_once(monkeypatch, channel):
    """Every edge above the leaves is folded once per call, however many
    LIDs sit below it: ``index_of`` (the only per-edge probe the walk
    makes; leaves answer through ``position_map``) sees each non-root
    node exactly once."""
    scheme = BBox(TINY_CONFIG, ordinal=True)
    lids = churn(scheme, scheme.bulk_load(80), seed=5)
    assert scheme.height >= 2
    probed = []
    index_of = BNode.index_of

    def counting_index_of(node, entry):
        probed.append(entry)
        return index_of(node, entry)

    monkeypatch.setattr(BNode, "index_of", counting_index_of)
    scheme.lookup_many(lids + lids[::-1], channel)
    backend = scheme.store.backend
    nodes = [
        block_id
        for block_id in scheme.store.block_ids()
        if isinstance(backend.read(block_id), BNode) and not backend.read(block_id).is_root
    ]
    assert sorted(probed) == sorted(nodes)


class TestExecutorVectorization:
    def _per_op(self, scheme, groups, ops):
        """The scalar reference: each group's ops as plain scheme calls,
        refs resolved by hand, inside one measured scope per group."""
        results = [None] * len(ops)
        costs = []
        for group in groups:
            with scheme.store.measured() as measured:
                for position in group:
                    op = ops[position]
                    args = [
                        results[arg.index] if isinstance(arg, BatchRef) else arg
                        for arg in op.args
                    ]
                    results[position] = getattr(scheme, op.kind)(*args)
            costs.append(measured.cost)
        return results, costs

    def test_lookup_run_results_and_io_identical(self):
        def build():
            scheme = BBox(TINY_CONFIG, ordinal=True)
            lids = churn(scheme, scheme.bulk_load(30), seed=7)
            return scheme, lids

        _, sample = build()
        sample = sample[:12]

        ops = [BatchOp("lookup", (lid,)) for lid in sample]
        ops += [BatchOp("ordinal_lookup", (lid,)) for lid in sample]
        ops.insert(5, BatchOp("insert_before", (sample[0],)))
        ops.append(BatchOp("lookup", (BatchRef(5),)))  # ref to the insert

        executor = BatchExecutor(build()[0], group_size=64)
        vec = executor.execute(ops)
        results, costs = self._per_op(build()[0], executor.plan(ops), ops)
        assert vec.results == results
        assert len(vec.group_costs) == len(costs)
        for fast, slow in zip(vec.group_costs, costs):
            assert fast.reads == slow.reads
            assert fast.writes == slow.writes

    def test_ref_into_unfilled_slot_falls_back(self):
        scheme = BBox(TINY_CONFIG)
        lids = scheme.bulk_load(10)
        executor = BatchExecutor(scheme, group_size=64)
        # A forward ref inside a lookup run: _collect_run must break the
        # run there, and the scalar path must still resolve it in order.
        ops = [
            BatchOp("lookup", (lids[0],)),
            BatchOp("insert_before", (lids[1],)),
            BatchOp("lookup", (BatchRef(1),)),
            BatchOp("lookup", (lids[2],)),
        ]
        result = executor.execute(ops)
        assert result.results[2] == scheme.lookup(result.results[1])
        assert result.results[3] == scheme.lookup(lids[2])

    def test_traced_run_is_one_lookup_many_span(self):
        """A recorded trace executes the same calls as an unrecorded run:
        each group's lookup run is one ``scheme.lookup_many`` span, and the
        tree's counted I/O is the store's."""
        from repro.obs.trace import Tracer, set_tracer

        scheme = BBox(TINY_CONFIG)
        lids = sorted(churn(scheme, scheme.bulk_load(24), seed=2))
        scalar = [scheme.lookup(lid) for lid in lids]
        executor = BatchExecutor(scheme, group_size=len(lids))
        ops = [BatchOp("lookup", (lid,)) for lid in lids]
        tracer = Tracer(enabled=True)
        previous = set_tracer(tracer)
        before = scheme.stats.snapshot()
        try:
            traced = executor.execute(ops)
        finally:
            set_tracer(previous)
        delta = scheme.stats.snapshot() - before
        assert traced.results == scalar
        # Locality cuts one group per LIDF block: several LIDs in each.
        assert 1 < traced.group_count < len(lids)
        root = tracer.take()
        assert root is not None
        names = [span.name for span in root.walk()]
        assert names.count("scheme.lookup_many") == traced.group_count
        assert "scheme.lookup" not in names
        assert delta.reads > 0
        assert (root.total("io.reads"), root.total("io.writes")) == (
            delta.reads,
            delta.writes,
        )


class TestPositionIndexCache:
    def test_kernel(self):
        assert position_index([]) == {}
        assert position_index([7, 3, 9]) == {7: 0, 3: 1, 9: 2}

    def test_cache_built_and_dropped_on_touch(self):
        scheme = BBox(TINY_CONFIG)
        lids = scheme.bulk_load(12)
        leaf_id = scheme.lidf.read(lids[0])
        leaf = scheme.store.read(leaf_id)
        pos = leaf.position_map()
        assert pos[lids[0]] == leaf.entries.index(lids[0])
        assert leaf._pos_index is pos
        leaf.touch()
        assert leaf._pos_index is None

    def test_index_of_unknown_entry(self):
        scheme = BBox(TINY_CONFIG)
        lids = scheme.bulk_load(6)
        leaf = scheme.store.read(scheme.lidf.read(lids[0]))
        with pytest.raises(ValueError):
            leaf.index_of(-1)

    def test_invariant_check_catches_stale_cache(self):
        scheme = BBox(TINY_CONFIG)
        lids = scheme.bulk_load(12)
        leaf = scheme.store.read(scheme.lidf.read(lids[0]))
        leaf.position_map()
        # Mutate entries behind the store's back (no write -> no touch):
        # exactly the bug class the invariant check exists to catch.
        leaf.entries.append(999_999)
        with pytest.raises(InvariantViolation, match="stale position index"):
            scheme.check_invariants()

    def test_churn_keeps_invariants(self):
        for ordinal in (False, True):
            scheme = BBox(TINY_CONFIG, ordinal=ordinal)
            lids = churn(scheme, scheme.bulk_load(40), seed=11)
            scheme.lookup_many(lids)
            if ordinal:
                scheme.lookup_many(lids, ORDINAL_CHANNEL)
            scheme.check_invariants()
