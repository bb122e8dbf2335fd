"""Exhaustive interleaving sweeps over the query-stream engine.

Same discipline as :mod:`tests.conc.test_interleavings`, one level up:
each schedule rebuilds a deterministic world (W-BOX two-level document,
label service on the cooperative scheduler, per-epoch label oracle) and
runs a query-engine reader against an element-inserting writer under
every interleaving of the preemption points.  The invariant after every
view build is

    every axis answer of the view == the answer recomputed from the
    oracle's label row for the view's pinned epoch

which rules out torn views (a build mixing labels from two epochs would
sort or nest differently from any single oracle row) — and a view held
across a writer commit must keep returning byte-identical results,
because views are immutable snapshots.
"""

from __future__ import annotations

from repro import BatchOp, TINY_CONFIG, WBox
from repro.query.streams import ElementCatalog, EpochView, QueryEngine
from repro.service import ShardedLabelService
from repro.workloads.sequences import _bulk_load_two_level

from .scheduler import SchedulerLatch, explore

#: One decision per read, one per epoch publish (see test_interleavings).
COARSE = {"read:begin", "write:publish"}

BASE_CHILDREN = 2  # two-level doc: 6 labels; keeps the sweep tractable


def build_world(scheduler):
    scheme = WBox(TINY_CONFIG)
    lids = _bulk_load_two_level(scheme, BASE_CHILDREN)
    history: dict[int, dict[int, object]] = {}

    def record(epoch) -> None:
        # Under the exclusive latch: this row is epoch.number's exact
        # label truth for every live LID (writer inserts add LIDs, so
        # sweep the heap file rather than a fixed list).
        history[epoch.number] = {
            lid: scheme.lookup(lid) for lid, _value in scheme.lidf.scan()
        }

    service = ShardedLabelService(
        [scheme],
        log_capacity=64,
        group_size=1,
        latches=[SchedulerLatch(scheduler)],
        yield_hook=scheduler.yield_point,
        epoch_hooks=[record],
    )
    record(service.current_epoch_vector[0])
    pairs = [(lids[0], lids[-1])] + [
        (lids[1 + 2 * child], lids[2 + 2 * child]) for child in range(BASE_CHILDREN)
    ]
    return service, lids, pairs, history


def check_view_against_oracle(view, history) -> None:
    """Every axis answer must equal the answer recomputed from the label
    truth of the view's own epoch — the per-epoch oracle."""
    row = history[view.epochs[0]]
    expected = EpochView(
        view.epochs,
        view.catalog_version,
        sorted(view.pairs, key=lambda pair: row[pair[0]]),
        *(lambda keyed: (
            [row[pair[0]] for pair in keyed],
            [row[pair[1]] for pair in keyed],
        ))(sorted(view.pairs, key=lambda pair: row[pair[0]])),
    )
    assert view.pairs == expected.pairs, (
        f"view order diverges from epoch {view.epochs[0]} truth"
    )
    for pair in view.pairs:
        assert list(view.descendants(pair)) == list(expected.descendants(pair))
        assert list(view.following(pair)) == list(expected.following(pair))
        assert list(view.ancestors(pair)) == list(expected.ancestors(pair))
        assert view.depth(pair) == expected.depth(pair)


def serialize(view) -> bytes:
    """A view's complete answer set as bytes (the byte-identical check)."""
    out = []
    for pair in view.pairs:
        out.append((pair, list(view.descendants(pair)), list(view.ancestors(pair))))
    return repr((view.epochs, out)).encode()


def make_query_reader(engine, history, rounds):
    def run() -> None:
        for _ in range(rounds):
            # Drop the cached view so every round performs a real
            # epoch-consistent label round (the code path under test);
            # the cache would otherwise hide the race entirely.
            engine._view = None
            view = engine.view()
            check_view_against_oracle(view, history)
            first = serialize(view)
            # The writer may commit between these two serializations (the
            # view build above yielded at every label read); an immutable
            # snapshot must not care.
            assert serialize(view) == first, "view mutated across a commit"
            engine.session.refresh()

    return run


def make_insert_writer(service, anchor_lid, catalog, count):
    """Writer: commit one element insert at a time; grow the catalog only
    *after* the commit acked (the add-after/remove-before discipline)."""

    def run() -> None:
        for _ in range(count):
            result = service.apply_ops_sync(
                [BatchOp("insert_element_before", (anchor_lid,))]
            )
            if catalog is not None:
                start_lid, end_lid = result.results[0]
                catalog.add(start_lid, end_lid)

    return run


def test_sweep_views_stay_epoch_pure_under_shifting_labels():
    """Fixed catalog, label-shifting writer: 1 query reader x 1 writer x 2
    concentrated element inserts, every coarse interleaving.  Each insert
    shifts the labels of every catalog element after the anchor, so a
    torn view build (labels from two epochs) would disagree with every
    single oracle row."""
    executed_holder = []

    def setup(scheduler):
        service, lids, pairs, history = build_world(scheduler)
        catalog = ElementCatalog(pairs)
        engine = QueryEngine(service.session(), catalog)
        # Warm from the setup thread so the sweep exercises replay too.
        engine.view()
        scheduler.spawn("query-reader", make_query_reader(engine, history, rounds=2))
        scheduler.spawn(
            "writer", make_insert_writer(service, lids[3], None, count=2)
        )
        return None

    executed = explore(setup, preempt_on=COARSE)
    executed_holder.append(executed)
    # 2 view builds x 6 catalog LIDs of reads + 2 writer publishes: the
    # multinomial floor is well above 400 schedules; a collapse means the
    # sweep stopped preempting inside lookup_many.
    assert executed >= 400, executed


def test_sweep_catalog_growth_races_view_builds():
    """Growing catalog: the writer inserts elements AND registers them.
    A view build can race the registration at any point; whatever epoch
    and membership it lands on, its answers must match that epoch's
    oracle row exactly."""

    def setup(scheduler):
        service, lids, pairs, history = build_world(scheduler)
        catalog = ElementCatalog(pairs)
        engine = QueryEngine(service.session(), catalog)
        engine.view()
        scheduler.spawn("query-reader", make_query_reader(engine, history, rounds=1))
        scheduler.spawn(
            "writer", make_insert_writer(service, lids[-1], catalog, count=2)
        )
        return None

    executed = explore(setup, preempt_on=COARSE)
    assert executed >= 50, executed
