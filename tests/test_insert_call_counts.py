"""Exact ``BlockStore`` call counts on the insert and bulk paths.

Counted I/O (``IOStats``) is the paper's cost model, and the operation
buffer dedupes it: a block read ten times in one operation costs one I/O.
The Python work does not dedupe — every ``BlockStore.read`` / ``write`` /
``exists`` call is paid.  These counts are a host-independent proxy for
that CPU cost: they pin that the insert paths touch storage once per
block (W-BOX-O's partner fixups, LIDF repointing after a split), not once
per record, that bulk loads and subtree inserts allocate and repoint LIDF
records a block at a time, and that B-BOX update paths build no position
map the next write would throw away.  They also pin how many operation
scopes (``operation()`` / ``measured()``) open, outermost and nested: a
nested scope is only a depth bump, but every one is a call, and the
outermost ones each flush and may commit.

Regenerate the pinned numbers (only for a deliberate change of the insert
or bulk paths) with::

    PYTHONPATH=src python -m tests.test_insert_call_counts
"""

import random
from collections import Counter

import pytest

from repro import BatchExecutor, BatchOp, BBox, WBox, WBoxO
from repro.config import BENCH_CONFIG, TINY_CONFIG
from repro.core.bbox import node as bbox_node
from repro.workloads.sequences import two_level_pairing
from repro.xml.xmark import xmark_document

#: The e2e ``embed_xmark --smoke`` document: 20 items, fixed seed.
XMARK_ITEMS = 20
#: Labels bulk-loaded before the random inserts, and how many follow.
BULK_LABELS = 20_000
RANDOM_INSERTS = 400
#: Labels of the pinned subtree insert into a BULK_LABELS tree.
SUBTREE_LABELS = 1_000

FACTORIES = {
    "W-BOX": lambda: WBox(BENCH_CONFIG),
    "W-BOX-O": lambda: WBoxO(BENCH_CONFIG),
    "B-BOX": lambda: BBox(BENCH_CONFIG),
    "B-BOX-O": lambda: BBox(BENCH_CONFIG, ordinal=True),
}

#: (read, write, exists) calls over the whole XMark build (938 element
#: inserts).  Before the per-block insert paths: W-BOX 10,850 / 7,112 / 0,
#: W-BOX-O 47,994 / 12,901 / 36,590, B-BOX 7,391 / 5,531 / 0, B-BOX-O
#: 9,020 / 7,160 / 0.
XMARK_CALLS = {
    "W-BOX": (9218, 5480, 0),
    "W-BOX-O": (16814, 11231, 3540),
    "B-BOX": (5695, 3835, 0),
    "B-BOX-O": (7324, 5464, 0),
}
#: (outermost, nested) operation scopes over the same XMark build.
XMARK_SCOPES = {
    "W-BOX": (938, 1876),
    "W-BOX-O": (938, 3752),
    "B-BOX": (938, 1876),
    "B-BOX-O": (938, 1876),
}
#: Ops in the pinned read batch over the built XMark tree: the e2e
#: ``embed_xmark`` read shape (lookups of a start or end tag, and
#: lookup_pairs), random anchors, so most groups hold one op.
READ_BATCH_OPS = 64
#: (outermost, nested) operation scopes of that one read batch.
READ_BATCH_SCOPES = {
    "W-BOX": (60, 81),
    "W-BOX-O": (60, 64),
    "B-BOX": (60, 81),
    "B-BOX-O": (60, 81),
}
#: (read, write, exists) calls over RANDOM_INSERTS seeded ``insert_before``
#: calls at BULK_LABELS labels.  Before: W-BOX 12,404 / 11,686 / 0, B-BOX
#: 11,091 / 10,772 / 0.
INSERT_CALLS = {
    "W-BOX": (2762, 2044, 0),
    "B-BOX": (1574, 1255, 0),
}

#: (read, write, exists) calls of ``bulk_load(BULK_LABELS)`` (W-BOX-O with
#: a two-level document's pairing).  Before the per-block bulk paths, one
#: LIDF read and write per label: W-BOX 20,336 / 20,336 / 0, W-BOX-O
#: 60,937 / 40,937 / 254, B-BOX and B-BOX-O 20,325 / 20,325 / 0.  Before
#: a W-BOX-O load stopped re-deriving the end values its wiring had just
#: set: W-BOX-O 1,355 / 1,355 / 254.
BULK_CALLS = {
    "W-BOX": (500, 500, 0),
    "W-BOX-O": (1101, 1101, 0),
    "B-BOX": (489, 489, 0),
    "B-BOX-O": (489, 489, 0),
}
#: (read, write, exists) calls of one ``insert_subtree_before`` of
#: SUBTREE_LABELS labels a third of the way into a BULK_LABELS tree.
#: Before: W-BOX 1,083 / 1,058 / 0, B-BOX 1,454 / 1,342 / 0.
SUBTREE_CALLS = {
    "W-BOX": (93, 68, 0),
    "B-BOX": (464, 352, 0),
}


def _count_calls(store) -> Counter:
    """Wrap the store's read / write / exists to count their calls, and its
    operation / measured to count the scopes they open: ``outermost`` when
    no operation is open on the store, ``nested`` inside one."""
    counts: Counter = Counter()
    for name in ("read", "write", "exists"):
        method = getattr(store, name)

        def counted(*args, _method=method, _name=name):
            counts[_name] += 1
            return _method(*args)

        setattr(store, name, counted)
    for name in ("operation", "measured"):
        method = getattr(store, name)

        def scoped(_method=method):
            counts["nested" if store.in_operation else "outermost"] += 1
            return _method()

        setattr(store, name, scoped)
    return counts


def _triple(counts: Counter) -> tuple[int, int, int]:
    return counts["read"], counts["write"], counts["exists"]


def _scopes(counts: Counter) -> tuple[int, int]:
    return counts["outermost"], counts["nested"]


def _xmark_build(name: str) -> tuple:
    """The XMark build, element by element in document order (the
    ``embed_xmark`` build) → ``(scheme, (start, end) LIDs by element
    index, the calls it made)``."""
    elements = list(xmark_document(XMARK_ITEMS, seed=1).iter())
    scheme = FACTORIES[name]()
    end_lids = {elements[0]: scheme.bulk_load(2, [1, 0])[1]}
    pairs = [(0, 0)]
    counts = _count_calls(scheme.store)
    for element in elements[1:]:
        pair = scheme.insert_element_before(end_lids[element.parent])
        end_lids[element] = pair[1]
        pairs.append(pair)
    return scheme, pairs, Counter(counts)


def xmark_build_calls(name: str) -> tuple[int, int, int]:
    """Calls made by the XMark build."""
    return _triple(_xmark_build(name)[2])


def xmark_build_scopes(name: str) -> tuple[int, int]:
    """Operation scopes the XMark build opens."""
    return _scopes(_xmark_build(name)[2])


def read_batch_scopes(name: str) -> tuple[int, int]:
    """Operation scopes of one seeded READ_BATCH_OPS-op read batch through
    ``BatchExecutor`` over the built XMark tree."""
    scheme, pairs, _ = _xmark_build(name)
    rng = random.Random(5)
    ops = []
    for _ in range(READ_BATCH_OPS):
        index, which = rng.randrange(1, len(pairs)), rng.randrange(3)
        pair = pairs[index]
        ops.append(
            BatchOp("lookup_pair", pair) if which == 2 else BatchOp("lookup", (pair[which],))
        )
    counts = _count_calls(scheme.store)
    BatchExecutor(scheme, group_size=READ_BATCH_OPS).execute(ops)
    return _scopes(counts)


def random_insert_calls(name: str) -> tuple[int, int, int]:
    """Calls made by seeded random ``insert_before`` on a bulk-loaded tree."""
    scheme = FACTORIES[name]()
    lids = scheme.bulk_load(BULK_LABELS)
    rng = random.Random(7)
    counts = _count_calls(scheme.store)
    for _ in range(RANDOM_INSERTS):
        lids.append(scheme.insert_before(lids[rng.randrange(len(lids))]))
    return _triple(counts)


def bulk_load_calls(name: str) -> tuple[tuple[int, int, int], int]:
    """Calls made by one bulk load of BULK_LABELS labels, and the counted
    block writes it made."""
    scheme = FACTORIES[name]()
    counts = _count_calls(scheme.store)
    scheme.bulk_load(BULK_LABELS, two_level_pairing(BULK_LABELS // 2 - 1))
    return _triple(counts), scheme.stats.writes


def subtree_insert_calls(name: str) -> tuple[int, int, int]:
    """Calls made by one subtree insert into a bulk-loaded tree."""
    scheme = FACTORIES[name]()
    lids = scheme.bulk_load(BULK_LABELS)
    counts = _count_calls(scheme.store)
    scheme.insert_subtree_before(lids[BULK_LABELS // 3], SUBTREE_LABELS)
    return _triple(counts)


@pytest.mark.parametrize("name", sorted(XMARK_CALLS))
def test_xmark_build_calls(name):
    assert xmark_build_calls(name) == XMARK_CALLS[name]


@pytest.mark.parametrize("name", sorted(XMARK_SCOPES))
def test_xmark_build_scopes(name):
    assert xmark_build_scopes(name) == XMARK_SCOPES[name]


@pytest.mark.parametrize("name", sorted(READ_BATCH_SCOPES))
def test_read_batch_scopes(name):
    assert read_batch_scopes(name) == READ_BATCH_SCOPES[name]


@pytest.mark.parametrize("name", sorted(INSERT_CALLS))
def test_random_insert_calls(name):
    assert random_insert_calls(name) == INSERT_CALLS[name]


@pytest.mark.parametrize("name", sorted(BULK_CALLS))
def test_bulk_load_calls(name):
    calls, counted_writes = bulk_load_calls(name)
    assert calls == BULK_CALLS[name]
    # O(N/B) Python work: a few calls per counted block write, not per label
    assert calls[0] + calls[1] <= 8 * counted_writes


@pytest.mark.parametrize("name", sorted(SUBTREE_CALLS))
def test_subtree_insert_calls(name):
    assert subtree_insert_calls(name) == SUBTREE_CALLS[name]


@pytest.mark.parametrize("name", ["B-BOX", "B-BOX-O"])
def test_bbox_inserts_build_no_position_map(name, monkeypatch):
    """Every B-BOX insert dirties the leaf it probes (and, on a split or
    with ordinal sizes, the ancestors), so a map built there would be
    dropped unused; only read paths build one."""
    builds = []
    real = bbox_node.position_index
    monkeypatch.setattr(
        bbox_node, "position_index", lambda entries: builds.append(1) or real(entries)
    )
    scheme = BBox(TINY_CONFIG, ordinal=name == "B-BOX-O")
    lids = scheme.bulk_load(200)
    rng = random.Random(3)
    for _ in range(600):
        lids.append(scheme.insert_before(lids[rng.randrange(len(lids))]))
    assert scheme.height > 2, "leaves and internal nodes split"
    assert builds == []
    scheme.lookup(lids[0])
    assert builds, "read paths still build the map"


if __name__ == "__main__":
    for name in XMARK_CALLS:
        print(f"xmark   {name:8} {xmark_build_calls(name)}")
    for name in XMARK_SCOPES:
        print(f"xmark scopes {name:8} {xmark_build_scopes(name)}")
    for name in READ_BATCH_SCOPES:
        print(f"read scopes  {name:8} {read_batch_scopes(name)}")
    for name in INSERT_CALLS:
        print(f"insert  {name:8} {random_insert_calls(name)}")
    for name in BULK_CALLS:
        print(f"bulk    {name:8} {bulk_load_calls(name)[0]}")
    for name in SUBTREE_CALLS:
        print(f"subtree {name:8} {subtree_insert_calls(name)}")
