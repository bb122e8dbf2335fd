"""Hypothesis stateful machine for the ancestry order-maintenance schemes.

Arbitrary interleavings of element inserts, deletes, order queries, and
mid-sequence checkpoint/reopen cycles, checked continuously against a
trivial in-memory model of document order (a flat tag list).  The dynamic
scheme additionally carries its headline guarantee as an invariant: label
bit length stays within the lg n + lg lg n + O(1) bound, no matter what
the edit history looked like.
"""

import tempfile

import hypothesis.strategies as st
from hypothesis import HealthCheck, settings
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro import AncestryDynamic, AncestryScheme, TINY_CONFIG
from repro.core.interface import LabelKind
from repro.persist import load_scheme, save_scheme
from repro.workloads import two_level_pairing
from benchmarks.labelbits import dynamic_ancestry_label_bits_bound

MACHINE_SETTINGS = settings(
    max_examples=10,
    stateful_step_count=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

BASE_CHILDREN = 4


class AncestryMachine(RuleBasedStateMachine):
    """Model: ``self.tags`` is the LID sequence in true document order,
    ``self.elements`` the live (start, end) pairs.  Every scheme answer
    is checked against positions in that list."""

    scheme_factory = staticmethod(lambda: AncestryDynamic(TINY_CONFIG))

    @initialize()
    def build(self):
        self.tmpdir = tempfile.TemporaryDirectory()
        self.scheme = self.scheme_factory()
        lids = self.scheme.bulk_load(
            2 + 2 * BASE_CHILDREN, pairing=two_level_pairing(BASE_CHILDREN)
        )
        self.tags = list(lids)
        self.elements = [(lids[0], lids[-1])] + [
            (lids[1 + 2 * c], lids[2 + 2 * c]) for c in range(BASE_CHILDREN)
        ]

    def teardown(self):
        if hasattr(self, "tmpdir"):
            self.tmpdir.cleanup()

    # -- rules ----------------------------------------------------------

    @rule(index=st.integers(0, 10_000))
    def insert_element(self, index):
        anchor = self.tags[index % len(self.tags)]
        start_lid, end_lid = self.scheme.insert_element_before(anchor)
        position = self.tags.index(anchor)
        self.tags[position:position] = [start_lid, end_lid]
        self.elements.append((start_lid, end_lid))

    @rule(index=st.integers(0, 10_000))
    def delete_element(self, index):
        if len(self.elements) <= 2:
            return
        start_lid, end_lid = self.elements.pop(index % len(self.elements))
        self.scheme.delete_element(start_lid, end_lid)
        self.tags.remove(start_lid)
        self.tags.remove(end_lid)

    @rule(a=st.integers(0, 10_000), b=st.integers(0, 10_000))
    def query_order(self, a, b):
        lid_a = self.tags[a % len(self.tags)]
        lid_b = self.tags[b % len(self.tags)]
        expected = self.tags.index(lid_a) - self.tags.index(lid_b)
        got = self.scheme.compare(lid_a, lid_b)
        assert (got > 0) == (expected > 0) and (got < 0) == (expected < 0)

    @rule(a=st.integers(0, 10_000), d=st.integers(0, 10_000))
    def query_ancestry(self, a, d):
        """The two-comparison ancestor test against model containment."""
        pair_a = self.elements[a % len(self.elements)]
        pair_d = self.elements[d % len(self.elements)]
        expected = (
            pair_a != pair_d
            and self.tags.index(pair_a[0]) < self.tags.index(pair_d[0])
            and self.tags.index(pair_d[1]) < self.tags.index(pair_a[1])
        )
        got = (
            self.scheme.lookup(pair_a[0]) < self.scheme.lookup(pair_d[0])
            and self.scheme.lookup(pair_d[1]) < self.scheme.lookup(pair_a[1])
        )
        assert got == expected

    @rule()
    def checkpoint_and_reopen(self):
        path = f"{self.tmpdir.name}/labels.box"
        save_scheme(self.scheme, path)
        self.scheme = load_scheme(path)

    # -- invariants ------------------------------------------------------

    @invariant()
    def labels_follow_model_order(self):
        if not hasattr(self, "scheme"):
            return
        values = [self.scheme.lookup(lid) for lid in self.tags]
        assert all(a < b for a, b in zip(values, values[1:])), (
            "labels out of document order"
        )

    @invariant()
    def kinds_survive(self):
        if not hasattr(self, "scheme"):
            return
        for start_lid, end_lid in self.elements:
            assert self.scheme.kind_of(start_lid) is LabelKind.START
            assert self.scheme.kind_of(end_lid) is LabelKind.END


class AncestryDynamicMachine(AncestryMachine):
    scheme_factory = staticmethod(lambda: AncestryDynamic(TINY_CONFIG))

    @invariant()
    def bit_length_bounded(self):
        """The headline guarantee: lg n + lg lg n + O(1) bits, always."""
        if not hasattr(self, "scheme"):
            return
        count = self.scheme.label_count()
        assert self.scheme.label_bit_length() <= dynamic_ancestry_label_bits_bound(count), (
            f"{self.scheme.label_bit_length()} bits for {count} labels exceeds "
            f"the dynamic ancestry bound {dynamic_ancestry_label_bits_bound(count)}"
        )


class AncestryStaticMachine(AncestryMachine):
    scheme_factory = staticmethod(lambda: AncestryScheme(TINY_CONFIG))


TestAncestryDynamicMachine = AncestryDynamicMachine.TestCase
TestAncestryStaticMachine = AncestryStaticMachine.TestCase
TestAncestryDynamicMachine.settings = MACHINE_SETTINGS
TestAncestryStaticMachine.settings = MACHINE_SETTINGS
