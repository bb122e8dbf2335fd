"""Vectorized bottom-up B-BOX label reconstruction.

``BBox.batch_lookup`` / ``batch_ordinal_lookup`` materialize a whole
group's labels in one pass by memoizing path prefixes (and subtree base
offsets) per internal node, so a batch of k lookups walks each distinct
internal node once instead of once per anchored LID.  The contract these
tests pin:

* results equal the scalar per-LID loop, on any tree shape;
* the logical I/O count never *increases* versus the scalar loop (the
  memo can only remove block reads);
* ``BatchExecutor`` transparently routes eligible lookup runs through
  the batch methods, with byte-for-byte identical results and identical
  per-group measured I/O, and falls back to scalars whenever a run is
  irregular (BatchRefs into unfilled slots, mixed kinds, tracing);
* the ``_pos_index`` position cache that makes ``index_of`` O(1) is
  dropped on ``touch()`` and validated by ``check_invariants``.
"""

import pytest

from repro import BatchExecutor, BatchOp, BatchRef, BBox
from repro.config import TINY_CONFIG
from repro.core.kernels import memoized_path_prefixes, position_index
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
    assert scheme.batch_lookup(lids) == scalar
    # Duplicates and arbitrary order are fine — it is a read-only batch.
    shuffled = lids[::-1] + lids[:5]
    assert scheme.batch_lookup(shuffled) == [scheme.lookup(lid) for lid in shuffled]


def test_batch_ordinal_lookup_matches_scalar(scheme):
    lids = churn(scheme, scheme.bulk_load(40))
    if not scheme.ordinal:
        from repro.errors import OrdinalUnsupportedError

        with pytest.raises(OrdinalUnsupportedError):
            scheme.batch_ordinal_lookup(lids)
        return
    scalar = [scheme.ordinal_lookup(lid) for lid in lids]
    assert scheme.batch_ordinal_lookup(lids) == scalar


def test_batch_lookup_never_reads_more(scheme):
    lids = churn(scheme, scheme.bulk_load(60), seed=3)
    before = scheme.stats.reads
    [scheme.lookup(lid) for lid in lids]
    scalar_reads = scheme.stats.reads - before

    before = scheme.stats.reads
    scheme.batch_lookup(lids)
    batch_reads = scheme.stats.reads - before
    assert batch_reads <= scalar_reads


def test_batch_lookup_empty_and_single(scheme):
    lids = scheme.bulk_load(5)
    assert scheme.batch_lookup([]) == []
    assert scheme.batch_lookup([lids[2]]) == [scheme.lookup(lids[2])]


def test_batch_lookup_unknown_lid(scheme):
    """Same exception surface as the scalar path: an unallocated LID dies
    in the LIDF, a freed LID dies in the leaf probe."""
    lids = scheme.bulk_load(5)
    with pytest.raises(RecordNotFoundError):
        scheme.batch_lookup([999_999])
    victim = lids[2]
    scheme.delete(victim)
    try:
        scheme.lookup(victim)
    except (RecordNotFoundError, UnknownLIDError) as scalar_error:
        with pytest.raises(type(scalar_error)):
            scheme.batch_lookup([victim])


def test_memoized_path_prefixes_walks_each_node_once():
    parents = {2: (1, 0), 3: (1, 1), 4: (2, 0), 5: (2, 1), 6: (3, 0)}
    calls = []

    def read_parent(child):
        calls.append(child)
        return parents[child]

    memo = {1: ()}
    assert memoized_path_prefixes(4, read_parent, memo) == (0, 0)
    assert memoized_path_prefixes(5, read_parent, memo) == (0, 1)
    assert memoized_path_prefixes(6, read_parent, memo) == (1, 0)
    assert memoized_path_prefixes(2, read_parent, memo) == (0,)
    # 2 was resolved while walking up from 4; nothing asks for it twice.
    assert sorted(calls) == [2, 3, 4, 5, 6]


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

    def test_tracing_disables_vectorization(self):
        from repro.obs.trace import Tracer, set_tracer

        scheme = BBox(TINY_CONFIG)
        lids = scheme.bulk_load(12)
        executor = BatchExecutor(scheme, group_size=64)
        ops = [BatchOp("lookup", (lid,)) for lid in lids]
        tracer = Tracer(enabled=True)
        previous = set_tracer(tracer)
        try:
            traced = executor.execute(ops)
        finally:
            set_tracer(previous)
        assert traced.results == [scheme.lookup(lid) for lid in lids]
        # The trace must still show per-op spans, not one batch blob.
        root = tracer.take()
        assert root is not None
        names = [span.name for span in root.walk()]
        assert names.count("scheme.lookup") == len(lids)


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
            scheme.batch_lookup(lids)
            if ordinal:
                scheme.batch_ordinal_lookup(lids)
            scheme.check_invariants()
