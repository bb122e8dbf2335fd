"""Hypothesis stateful test: random service histories, random epoch pins.

The state machine drives an (unstarted) service inline — writes through
``apply_ops_sync`` on the test thread, reads through a pool of sessions
created at random points in the history, so their pins scatter across
epochs.  The per-epoch oracle rows come from the ``epoch_hook`` exactly
as in the interleaving sweep; every read must match its session's pinned
row, and a freshly-refreshed session must agree with a direct
``scheme.lookup`` — pinning modification-log replay to the structure's
actual state.

Sessions deliberately go long stretches without reading (Hypothesis
decides), so with the small log capacity here the machine explores
overflow: replay that must give up and fall through, advancing the pin.
Sessions keep their refs across deletes, and ``recycle`` reads an element
whose LIDs were freed and reused since the session last read them.
"""

from __future__ import annotations

import hypothesis.strategies as st
from hypothesis import HealthCheck, settings
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro import BatchOp, BBox, TINY_CONFIG, WBox
from repro.service import LabelService
from repro.workloads import two_level_pairing

BASE_CHILDREN = 4
MACHINE_SETTINGS = settings(
    max_examples=20,
    stateful_step_count=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)


class ServiceMachine(RuleBasedStateMachine):
    scheme_factory = staticmethod(lambda: WBox(TINY_CONFIG))

    @initialize()
    def build(self):
        self.scheme = self.scheme_factory()
        n_tags = 2 * (BASE_CHILDREN + 1)
        self.lids = self.scheme.bulk_load(n_tags, two_level_pairing(BASE_CHILDREN))
        self.history: dict[int, dict[int, object]] = {}
        self.readable: list[int] = list(self.lids)

        def record(epoch) -> None:
            # Complete row: every LID live at this publish, including ones
            # born earlier in the same batch (the test thread learns their
            # values only after apply_ops_sync returns, the oracle must
            # know them now).
            with self.scheme.store.operation():
                live = [lid for lid, _ in self.scheme.lidf.scan()]
            self.history[epoch.number] = {
                lid: self.scheme.lookup(lid) for lid in live
            }

        self._record = record
        self.service = LabelService(
            self.scheme,
            log_capacity=8,  # small on purpose: overflow is a feature here
            group_size=2,
            epoch_hook=record,
        )
        record(self.service.current_epoch)
        self.sessions = [self.service.session()]
        # (start_lid, end_lid) of elements inserted and not yet deleted.
        self.inserted: list[tuple[int, int]] = []

    # -- writes --------------------------------------------------------

    @rule(pick=st.integers(0, 2**16), count=st.integers(1, 3))
    def insert(self, pick, count):
        anchor_pool = [self.lids[1 + 2 * i] for i in range(BASE_CHILDREN)]
        anchor_pool += [start for start, _ in self.inserted] + [self.lids[-1]]
        anchor = anchor_pool[pick % len(anchor_pool)]
        ops = [BatchOp("insert_element_before", (anchor,)) for _ in range(count)]
        result = self.service.apply_ops_sync(ops)
        for start, end in result.results:
            self.inserted.append((start, end))
            self.readable.extend((start, end))
        # Older oracle rows never saw these LIDs; only newly published
        # rows include them, which is exactly when sessions may see them.

    @rule(pick=st.integers(0, 2**16))
    def delete(self, pick):
        if not self.inserted:
            return
        start, end = self.inserted.pop(pick % len(self.inserted))
        self.readable.remove(start)
        self.readable.remove(end)
        # Sessions keep their refs: a freed LID's ref dies in replay.
        self.service.apply_ops_sync([BatchOp("delete_element", (start, end))])

    @rule(pick=st.integers(0, 2**16), which=st.integers(0, 2**16))
    def recycle(self, pick, which):
        """A session reads an element, the element is deleted, and inserts
        run until both its LIDs are reused: the session must read the new
        elements' labels, never the old element's replayed."""
        if not self.inserted:
            return
        session = self.sessions[pick % len(self.sessions)]
        pair = self.inserted[which % len(self.inserted)]
        session.refresh()
        session.resolve(pair)
        self.delete(which)
        while not set(pair) <= set(self.readable):
            self.insert(pick, 1)
        session.refresh()
        row = self.history[session.epoch.number]
        assert session.resolve(pair) == [row[lid] for lid in pair], pair

    # -- sessions ------------------------------------------------------

    @rule()
    def new_session(self):
        if len(self.sessions) < 6:
            self.sessions.append(self.service.session())

    @rule(pick=st.integers(0, 2**16))
    def refresh(self, pick):
        self.sessions[pick % len(self.sessions)].refresh()

    # -- reads (the actual invariants) ---------------------------------

    @rule(pick=st.integers(0, 2**16), which=st.integers(0, 2**16))
    def read(self, pick, which):
        session = self.sessions[pick % len(self.sessions)]
        lid = self.readable[which % len(self.readable)]
        (value,) = session.resolve((lid,))
        pin = session.epoch.number
        row = self.history[pin]
        # Rows are complete (scan at publish), and reading a LID unborn at
        # the pin forces a fallthrough that advances the pin past its
        # birth — so the pinned row always knows the LID.
        assert value == row[lid], (lid, pin, value, row[lid])

    @rule(pick=st.integers(0, 2**16), which=st.integers(0, 2**16))
    def read_pair(self, pick, which):
        session = self.sessions[pick % len(self.sessions)]
        child = which % BASE_CHILDREN
        start_lid, end_lid = self.lids[1 + 2 * child], self.lids[2 + 2 * child]
        start, end = session.resolve((start_lid, end_lid))
        pin = session.epoch.number
        row = self.history[pin]
        assert (start, end) == (row[start_lid], row[end_lid])

    @rule(
        pick=st.integers(0, 2**16),
        which=st.lists(st.integers(0, 2**16), min_size=2, max_size=6),
    )
    def read_many(self, pick, which):
        """One ``resolve`` of several LIDs: every value matches the ONE
        pinned row the session holds at return, even when some of them
        fell through and moved the pin mid-read."""
        session = self.sessions[pick % len(self.sessions)]
        lids = [self.readable[index % len(self.readable)] for index in which]
        values = session.resolve(lids)
        pin = session.epoch.number
        row = self.history[pin]
        assert values == [row[lid] for lid in lids], (lids, pin, values)

    @rule(pick=st.integers(0, 2**16), which=st.integers(0, 2**16))
    def read_latest_matches_direct(self, pick, which):
        """After a refresh to the newest epoch, replay-repaired values
        equal direct scheme lookups — the log lost nothing."""
        session = self.sessions[pick % len(self.sessions)]
        session.refresh()
        lid = self.readable[which % len(self.readable)]
        assert session.resolve((lid,)) == [self.scheme.lookup(lid)], lid

    @invariant()
    def pins_never_lead_published(self):
        current = self.service.current_epoch.number
        for session in self.sessions:
            assert session.epoch.number <= current

    def teardown(self):
        if hasattr(self, "service"):
            self.service.close()


@MACHINE_SETTINGS
class WBoxServiceMachine(ServiceMachine):
    pass


@MACHINE_SETTINGS
class BBoxOrdinalServiceMachine(ServiceMachine):
    scheme_factory = staticmethod(lambda: BBox(TINY_CONFIG, ordinal=True))


TestWBoxService = WBoxServiceMachine.TestCase
TestBBoxOrdinalService = BBoxOrdinalServiceMachine.TestCase
