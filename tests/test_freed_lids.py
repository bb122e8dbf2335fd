"""A freed LID is dead to Section 6's cache.

A delete logs the labels it freed in the shift it already emits
(``RangeShift.freed``), so a cached reference replayed across its own free
misses and falls through to the BOX: a LID recycled by a later insert
reads the new element's label, exactly what a fresh reader reads, and a
LID still free raises :class:`UnknownLIDError` and leaves no ref behind.
Both front ends — a service ``ReaderSession`` and a ``CachedLabelStore`` —
read through the one rule, :func:`repro.core.cachelog.serve_refs`; the
tests here run every scheme variant through both, on every channel the
variant has, and once over the wire.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import BatchOp, CachedLabelStore
from repro.core.cachelog import LABEL_CHANNEL, ORDINAL_CHANNEL, RangeShift
from repro.errors import UnknownLIDError
from repro.net.client import NetClient
from repro.net.server import serve_in_thread
from repro.service import LabelService, ShardedLabelService
from repro.workloads import two_level_pairing

from .conftest import SCHEME_FACTORIES

CHILDREN = 6


def _channels(scheme) -> tuple[str, ...]:
    return (LABEL_CHANNEL, ORDINAL_CHANNEL) if scheme.supports_ordinal else (LABEL_CHANNEL,)


VARIANT_CHANNELS = [
    (name, channel)
    for name in sorted(SCHEME_FACTORIES)
    for channel in _channels(SCHEME_FACTORIES[name]())
]


def _base(name: str):
    """A two-level document: root start, ``CHILDREN`` elements, root end."""
    scheme = SCHEME_FACTORIES[name]()
    return scheme, scheme.bulk_load(2 * (CHILDREN + 1), two_level_pairing(CHILDREN))


class SessionFront:
    """Writes through a label service, reads through one pinned session
    that refreshes before every read."""

    def __init__(self, scheme) -> None:
        self.service = LabelService(scheme, log_capacity=64)
        self.session = self.service.session()

    def write(self, op: str, *args):
        return tuple(self.service.apply_ops_sync([BatchOp(op, args)]).results[0] or ())

    def read(self, lids, channel):
        self.session.refresh()
        return self.session.resolve(lids, channel)

    def holds(self, lid, channel) -> bool:
        return lid in self.session._refs[channel]

    def close(self) -> None:
        self.service.close()


class CacheFront:
    """Writes on the scheme, reads through one ``CachedLabelStore`` ref per
    (LID, channel), kept across every edit as a database would keep it."""

    def __init__(self, scheme) -> None:
        self.scheme = scheme
        self.cache = CachedLabelStore(scheme, log_capacity=64)
        self.refs: dict = {}

    def write(self, op: str, *args):
        return tuple(getattr(self.scheme, op)(*args) or ())

    def read(self, lids, channel):
        values = []
        for lid in lids:
            ref = self.refs.get((lid, channel))
            if ref is None:
                ref = self.refs[(lid, channel)] = self.cache.reference(lid, channel)
                values.append(ref.value)
            else:
                values.append(self.cache.get(ref))
        return values

    def holds(self, lid, channel) -> bool:
        return False  # the caller owns its refs

    def close(self) -> None:
        self.cache.close()


FRONTS = {"session": SessionFront, "cache": CacheFront}


@pytest.mark.parametrize("front", sorted(FRONTS))
@pytest.mark.parametrize("name, channel", VARIANT_CHANNELS)
def test_a_recycled_lid_reads_its_new_element(front, name, channel):
    """Read an element, delete it, let the next insert recycle both its
    LIDs elsewhere in the document: the held refs must read the new
    element, as a fresh reader does."""
    scheme, lids = _base(name)
    reader = FRONTS[front](scheme)
    try:
        old = reader.write("insert_element_before", lids[7])  # before child 3
        reader.read(old, channel)
        reader.write("delete_element", *old)
        new = reader.write("insert_element_before", lids[-1])  # last child
        assert sorted(new) == sorted(old)
        fresh = FRONTS[front](scheme)
        try:
            expected = fresh.read(old, channel)
        finally:
            fresh.close()
        assert expected == scheme.lookup_many(old, channel)
        assert reader.read(old, channel) == expected
    finally:
        reader.close()


@pytest.mark.parametrize("front", sorted(FRONTS))
@pytest.mark.parametrize("name, channel", VARIANT_CHANNELS)
def test_a_freed_lid_raises_and_leaves_no_ref(front, name, channel):
    scheme, lids = _base(name)
    reader = FRONTS[front](scheme)
    try:
        old = reader.write("insert_element_before", lids[3])
        reader.read(old, channel)
        reader.write("delete_element", *old)
        for _ in range(2):  # a raise serves nothing stale the next time
            for lid in old:
                with pytest.raises(UnknownLIDError):
                    reader.read([lid], channel)
                assert not reader.holds(lid, channel)
    finally:
        reader.close()


# ----------------------------------------------------------------------
# the wire
# ----------------------------------------------------------------------


def test_a_connection_reads_a_recycled_lid_as_a_fresh_connection_does():
    """Connection A reads an element; connection B deletes it and inserts
    one that recycles its LIDs; A's ``Lookup`` and ``Compare`` replies
    after a refresh equal a fresh connection's."""
    scheme, lids = _base("wbox")
    service = ShardedLabelService([scheme]).start()
    holder, thread = serve_in_thread(service)
    port = holder["server"].port
    try:
        with NetClient("127.0.0.1", port) as a, NetClient("127.0.0.1", port) as b:
            ((start, end),) = b.submit([BatchOp("insert_element_before", (lids[7],))])
            a.refresh()
            pairs = [(start, end), (start, lids[8]), (lids[-1], end), (end, lids[5])]
            a.lookup([start, end])
            a.compare(pairs)
            b.submit([BatchOp("delete_element", (start, end))])
            (recycled,) = b.submit([BatchOp("insert_element_before", (lids[-1],))])
            assert sorted(recycled) == sorted((start, end))
            a.refresh()
            seen = (a.lookup([start, end]), a.compare(pairs))
            with NetClient("127.0.0.1", port) as fresh:
                assert seen == (fresh.lookup([start, end]), fresh.compare(pairs))
    finally:
        holder["stop"]()
        thread.join(10)
        service.close()


# ----------------------------------------------------------------------
# property: insert/delete tapes
# ----------------------------------------------------------------------

TAPES = st.lists(
    st.tuples(st.sampled_from(("insert", "delete", "read")), st.integers(0, 2**16)),
    max_size=24,
)


@pytest.mark.parametrize("name", sorted(SCHEME_FACTORIES))
@given(tape=TAPES)
@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_every_read_after_refresh_equals_the_scheme(name, tape):
    """Both front ends over one scheme and a short log (reads skip whole
    stretches, so refs also go stale past the log): after ``refresh`` every
    session read and every ``CachedLabelStore.get`` equals
    ``scheme.lookup_many``, and every freed, unrecycled LID raises
    ``UnknownLIDError`` on both and leaves no session ref."""
    scheme, lids = _base(name)
    service = LabelService(scheme, log_capacity=8)
    cache = CachedLabelStore(scheme, log_capacity=8)
    session = service.session()
    refs: dict = {}
    inserted: list[tuple[int, int]] = []
    freed: set[int] = set()
    try:
        for kind, pick in [*tape, ("read", 0)]:
            if kind == "insert":
                anchors = lids[1:] + [start for start, _ in inserted]
                op = BatchOp("insert_element_before", (anchors[pick % len(anchors)],))
                pair = tuple(service.apply_ops_sync([op]).results[0])
                inserted.append(pair)
                freed.difference_update(pair)
            elif kind == "delete" and inserted:
                pair = inserted.pop(pick % len(inserted))
                service.apply_ops_sync([BatchOp("delete_element", pair)])
                freed.update(pair)
            elif kind == "read":
                session.refresh()
                live = lids + [lid for pair in inserted for lid in pair]
                for channel in _channels(scheme):
                    truth = scheme.lookup_many(live, channel)
                    assert session.resolve(live, channel) == truth
                    for lid, value in zip(live, truth):
                        ref = refs.get((lid, channel))
                        if ref is None:
                            refs[(lid, channel)] = cache.reference(lid, channel)
                        else:
                            assert cache.get(ref) == value, (lid, channel)
                    for lid in sorted(freed):
                        with pytest.raises(UnknownLIDError):
                            session.resolve([lid], channel)
                        assert lid not in session._refs[channel]
                        if (lid, channel) in refs:
                            with pytest.raises(UnknownLIDError):
                                cache.get(refs[(lid, channel)])
    finally:
        cache.close()
        service.close()


# ----------------------------------------------------------------------
# guard: every delete path logs what it freed
# ----------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(SCHEME_FACTORIES))
def test_every_shrinking_shift_frees_what_it_removes(name):
    """On a churn tape of element inserts, element deletes and subtree
    deletes, a shift that closes ``-delta`` slots frees exactly that many
    labels, a shift that moves nothing is one scheme-level free, and an
    insert's shift frees nothing."""
    scheme, lids = _base(name)
    effects: list = []
    scheme.add_log_listener(effects.append)
    rng = random.Random(name)
    inserted: list[tuple[int, int]] = []
    subtree = [5, 2, 1, 4, 3, 0]  # an element holding two children
    for _ in range(120):
        roll = rng.random()
        anchor = rng.choice(lids[1:] + [start for start, _ in inserted])
        if roll < 0.5 or not inserted:
            inserted.append(scheme.insert_element_before(anchor))
        elif roll < 0.8:
            scheme.delete_element(*inserted.pop(rng.randrange(len(inserted))))
        else:
            new = scheme.insert_subtree_before(anchor, len(subtree), subtree)
            scheme.delete_range(new[0], new[-1])
    shifts = [effect for effect in effects if isinstance(effect, RangeShift)]
    assert any(shift.freed for shift in shifts)
    for shift in shifts:
        expected = -shift.delta if shift.delta < 0 else int(shift.delta == 0)
        assert shift.freed == expected, shift
