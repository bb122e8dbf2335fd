"""Query streams vs. a naive in-memory tree walk.

The :class:`~repro.query.streams.EpochView` recovers structure purely
from labels read at one pinned epoch; the XML model recovers it from
parent pointers.  These tests assert the two agree element-for-element
on every axis, across documents, schemes, service types (single and
sharded), and across a commit that moves the catalog and the epoch.
"""

import random
import threading
import time

import pytest

from repro import LabeledDocument, TINY_CONFIG, WBox
from repro.core import AncestryDynamic
from repro.core.batch import BatchOp
from repro.errors import LabelingError
from repro.query import ElementCatalog, EpochView, QueryEngine
from repro.service.sharded import ShardedLabelService, bulk_load_sharded
from repro.workloads import two_level_pairing
from repro.xml.generator import random_document, two_level_document
from repro.xml.model import TagKind, document_tags

from .conftest import random_edit_session


# -- the ground-truth oracle: a parent-pointer tree walk -----------------


class ModelOracle:
    """Axis answers computed from the XML model, never from labels."""

    def __init__(self, doc):
        self.doc = doc
        tags = list(document_tags(doc.root))
        self.order = [tag.element for tag in tags if tag.kind is TagKind.START]
        positions = {}
        for position, tag in enumerate(tags):
            positions.setdefault(tag.element, []).append(position)
        self.span = {element: tuple(pair) for element, pair in positions.items()}

    def pair(self, element):
        return (self.doc.start_lid(element), self.doc.end_lid(element))

    def descendants(self, element):
        return [self.pair(x) for x in self.order if element.is_ancestor_of(x)]

    def following(self, element):
        end = self.span[element][1]
        return [self.pair(x) for x in self.order if self.span[x][0] > end]

    def ancestors(self, element):
        chain = []
        node = element.parent
        while node is not None:
            chain.append(self.pair(node))
            node = node.parent
        return chain

    def ancestor_at_depth(self, element, depth):
        chain = [x for x in self.order if x.is_ancestor_of(element)]
        return self.pair(chain[depth]) if depth < len(chain) else None


def service_engine(doc):
    """A started service + engine whose catalog is the document's elements."""
    service = ShardedLabelService([doc.scheme])
    service.start()
    catalog = ElementCatalog(
        (doc.start_lid(element), doc.end_lid(element)) for element in doc.elements()
    )
    return service, QueryEngine(service.session(), catalog)


def assert_all_axes_agree(engine, oracle):
    view = engine.view()
    assert len(view) == len(oracle.order)
    for element in oracle.order:
        pair = oracle.pair(element)
        assert list(view.descendants(pair)) == oracle.descendants(element)
        assert list(view.following(pair)) == oracle.following(element)
        assert list(view.ancestors(pair)) == oracle.ancestors(element)
        model_depth = len(oracle.ancestors(element))
        assert view.depth(pair) == model_depth
        for depth in range(model_depth + 2):
            assert view.ancestor_at_depth(pair, depth) == oracle.ancestor_at_depth(
                element, depth
            )


@pytest.mark.parametrize("seed", [3, 11, 42])
def test_axes_match_model_on_random_documents(seed):
    doc = LabeledDocument(WBox(TINY_CONFIG), random_document(30, seed=seed))
    random_edit_session(doc, operations=40, seed=seed)
    service, engine = service_engine(doc)
    try:
        assert_all_axes_agree(engine, ModelOracle(doc))
    finally:
        service.close()


def test_axes_match_model_on_ancestry_scheme():
    """The new scheme variant drives the same engine the BOXes do."""
    doc = LabeledDocument(AncestryDynamic(TINY_CONFIG), two_level_document(12))
    random_edit_session(doc, operations=30, seed=9)
    service, engine = service_engine(doc)
    try:
        assert_all_axes_agree(engine, ModelOracle(doc))
    finally:
        service.close()


def test_view_straddles_commit():
    """A view pinned before a commit keeps answering at its epoch; after
    refresh the rebuilt view reflects the commit — never a mixture."""
    doc = LabeledDocument(WBox(TINY_CONFIG), two_level_document(8))
    service, engine = service_engine(doc)
    try:
        root_pair = (doc.start_lid(doc.root), doc.end_lid(doc.root))
        before = engine.view()
        count_before = len(list(before.descendants(root_pair)))
        ticket = service.submit_ops(
            [BatchOp("insert_element_before", (root_pair[1],))], timeout=30
        )
        start_lid, end_lid = ticket.wait(timeout=30).results[0]
        # The old view is immutable: same answer, same epoch.
        assert len(list(before.descendants(root_pair))) == count_before
        engine.catalog.add(start_lid, end_lid)
        engine.session.refresh()
        after = engine.view()
        assert after is not before
        assert after.epochs > before.epochs
        descendants = list(after.descendants(root_pair))
        assert len(descendants) == count_before + 1
        assert descendants[-1] == (start_lid, end_lid)  # last child of root
    finally:
        service.close()


def test_sharded_view_crosses_shards():
    """(shard, label) sort keys make cross-shard elements ordinary: the
    root element's tags live on different shards, yet every axis answer
    matches the same single-service document."""
    n_children = 12
    count = 2 + 2 * n_children
    schemes = [WBox(TINY_CONFIG) for _ in range(3)]
    service = ShardedLabelService(schemes)
    lids = bulk_load_sharded(schemes, count)
    service.start()
    try:
        pairs = [(lids[0], lids[-1])] + [
            (lids[1 + 2 * c], lids[2 + 2 * c]) for c in range(n_children)
        ]
        engine = service.query(pairs)
        view = engine.view()
        root_pair = pairs[0]
        assert len(view.epochs) == 3
        assert list(view.descendants(root_pair)) == pairs[1:]
        assert list(view.following(root_pair)) == []
        for child_pair in pairs[1:]:
            assert list(view.ancestors(child_pair)) == [root_pair]
            assert view.ancestor_at_depth(child_pair, 0) == root_pair
    finally:
        service.close()


def test_service_query_facade():
    doc = LabeledDocument(WBox(TINY_CONFIG), two_level_document(5))
    service = ShardedLabelService([doc.scheme])
    service.start()
    try:
        pairs = [(doc.start_lid(e), doc.end_lid(e)) for e in doc.elements()]
        engine = service.query(pairs)
        assert isinstance(engine, QueryEngine)
        root_pair = (doc.start_lid(doc.root), doc.end_lid(doc.root))
        assert len(list(engine.descendants(root_pair))) == 5
    finally:
        service.close()


def test_query_stress_smoke():
    """A short live-fire run of axis query streams racing an element-churn
    writer: every reader continuously checks the view invariants, so a
    zero-error run IS the assertion; the counters just prove everyone
    actually ran.

    Two readers each run a QueryEngine over a shared catalog, re-pinning
    every 8 streams.  The writer inserts 8 elements as last children of
    the root, then deletes them again — growing and shrinking the catalog
    from *acked* results only, so it never names an uncommitted element.
    """
    readers, base_elements, duration, write_batch = 2, 24, 0.3, 8
    scheme = WBox(TINY_CONFIG)
    lids = scheme.bulk_load(2 + 2 * base_elements, two_level_pairing(base_elements))
    root_pair = (lids[0], lids[-1])
    catalog = ElementCatalog([root_pair])
    for child in range(base_elements):
        catalog.add(lids[1 + 2 * child], lids[2 + 2 * child])
    service = ShardedLabelService([scheme], log_capacity=4096, group_size=16, queue_capacity=8)
    stop_flag = threading.Event()
    barrier = threading.Barrier(readers + 1)
    query_ops = [0] * readers
    elements_streamed = [0] * readers
    views_built = [0] * readers
    reader_errors = []

    def reader(index):
        session = service.session()
        engine = QueryEngine(session, catalog)
        rng = random.Random(7 + index)
        last_view = None
        try:
            barrier.wait(timeout=60)
            while not stop_flag.is_set():
                session.refresh()
                for _ in range(8):
                    view = engine.view()
                    if view is not last_view:
                        views_built[index] += 1
                        last_view = view
                        # Root invariants, checked once per fresh view.
                        assert len(list(view.descendants(root_pair))) == len(view) - 1
                        assert list(view.following(root_pair)) == []
                    target = view.pairs[rng.randrange(len(view.pairs))]
                    axis = query_ops[index] % 4
                    if axis == 0:
                        stream = view.descendants(target)
                    elif axis == 1:
                        stream = view.following(target)
                    elif axis == 2:
                        stream = view.ancestors(target)
                    else:
                        ancestor = view.ancestor_at_depth(target, 0)
                        stream = () if ancestor is None else (ancestor,)
                    for pair in stream:
                        assert pair in view._index, f"stream yielded foreign pair {pair}"
                        elements_streamed[index] += 1
                    query_ops[index] += 1
                    if stop_flag.is_set():
                        break
        except Exception as error:  # fails the run below
            reader_errors.append(error)

    threads = [threading.Thread(target=reader, args=(i,), daemon=True) for i in range(readers)]
    write_ops = 0
    with service:
        for thread in threads:
            thread.start()
        try:
            barrier.wait(timeout=60)
            started = time.perf_counter()
            while time.perf_counter() < started + duration:
                insert = [BatchOp("insert_element_before", (lids[-1],))] * write_batch
                inserted = service.submit_ops(insert, timeout=10).wait(timeout=10).results
                for start_lid, end_lid in inserted:
                    catalog.add(start_lid, end_lid)
                # Remove from the catalog BEFORE the delete commits: a reader
                # snapshot taken after the commit must not name a dead LID
                # (the engine retries snapshots that raced this removal).
                for start_lid, end_lid in inserted:
                    catalog.remove(start_lid, end_lid)
                delete = [BatchOp("delete_element", pair) for pair in inserted]
                service.submit_ops(delete, timeout=10).wait(timeout=10)
                write_ops += len(insert) + len(delete)
        finally:
            stop_flag.set()
            for thread in threads:
                thread.join(timeout=30)
        wall_seconds = time.perf_counter() - started
    assert not any(thread.is_alive() for thread in threads)
    assert reader_errors == []
    assert sum(query_ops) > 0 and sum(elements_streamed) > 0
    assert write_ops > 0 and sum(views_built) >= readers
    assert sum(query_ops) / wall_seconds > 0


# -- catalog + view unit behavior ---------------------------------------


def test_catalog_versioning():
    catalog = ElementCatalog([(1, 2)])
    version = catalog.version
    catalog.add(3, 4)
    assert catalog.version == version + 1
    assert (3, 4) in catalog and len(catalog) == 2
    catalog.remove(3, 4)
    catalog.remove(3, 4)  # idempotent, still bumps (snapshot retry relies on it)
    assert catalog.version == version + 3
    assert catalog.snapshot()[1] == [(1, 2)]


def test_view_rejects_foreign_and_inverted_pairs():
    doc = LabeledDocument(WBox(TINY_CONFIG), two_level_document(3))
    service, engine = service_engine(doc)
    try:
        view = engine.view()
        with pytest.raises(LabelingError):
            list(view.descendants((987, 988)))
        root_pair = (doc.start_lid(doc.root), doc.end_lid(doc.root))
        inverted = QueryEngine(service.session(), [(root_pair[1], root_pair[0])])
        with pytest.raises(LabelingError):
            inverted.view()
    finally:
        service.close()


def test_view_cache_reuse():
    """Same catalog version + same pin => the engine returns the same
    view object (no label I/O); any catalog bump invalidates it."""
    doc = LabeledDocument(WBox(TINY_CONFIG), two_level_document(4))
    service, engine = service_engine(doc)
    try:
        first = engine.view()
        assert engine.view() is first
        engine.catalog.add(*max(first.pairs))  # re-add an existing pair: version bump
        assert engine.view() is not first
    finally:
        service.close()


def test_epoch_view_is_buildable_directly():
    """EpochView is a plain value object: usable without an engine."""
    pairs = [(1, 6), (2, 3), (4, 5)]
    view = EpochView((7,), 0, pairs, [10, 20, 40], [100, 30, 50])
    assert view.epochs == (7,)
    assert list(view.descendants((1, 6))) == [(2, 3), (4, 5)]
    assert list(view.following((2, 3))) == [(4, 5)]
    assert view.depth((4, 5)) == 1
