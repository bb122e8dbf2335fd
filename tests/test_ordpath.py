"""ORDPATH baseline: careting-in, immutability, and the Ω(N)-bit label
growth the paper's Section 2 predicts for the concentrated sequence."""

import pytest

from repro import LabeledDocument, OrdPath, TINY_CONFIG
from repro.core.cachelog import RangeShift
from repro.core.ordpath import label_between, label_bits
from repro.errors import LabelingError
from repro.xml.generator import two_level_document
from repro.xml.model import Element


class TestLabelBetween:
    def test_empty_universe(self):
        assert label_between(None, None) == (1,)

    def test_before_and_after(self):
        assert label_between(None, (5,)) == (3,)
        assert label_between((5,), None) == (7,)

    def test_before_one_carets_down(self):
        label = label_between(None, (1,))
        assert label < (1,)

    def test_wide_gap_takes_midpointish(self):
        label = label_between((1,), (9,))
        assert (1,) < label < (9,)

    def test_adjacent_components_caret(self):
        label = label_between((1,), (2,))
        assert (1,) < label < (2,)

    def test_prefix_case(self):
        label = label_between((1,), (1, 5))
        assert (1,) < label < (1, 5)

    def test_deep_labels(self):
        left, right = (1, 2, 3), (1, 2, 4)
        label = label_between(left, right)
        assert left < label < right

    def test_out_of_order_rejected(self):
        with pytest.raises(LabelingError):
            label_between((5,), (3,))

    def test_chain_of_insertions_stays_ordered(self):
        labels = [(1,), (99,)]
        for _ in range(200):
            import random

            index = random.Random(len(labels)).randrange(len(labels) - 1)
            labels.insert(index + 1, label_between(labels[index], labels[index + 1]))
        assert labels == sorted(labels)
        assert len(set(labels)) == len(labels)


class TestScheme:
    def test_bulk_load_order(self):
        scheme = OrdPath(TINY_CONFIG)
        lids = scheme.bulk_load(20)
        labels = [scheme.lookup(lid) for lid in lids]
        assert labels == sorted(labels)

    def test_lookup_costs_one_io(self):
        scheme = OrdPath(TINY_CONFIG)
        lids = scheme.bulk_load(20)
        with scheme.store.measured() as op:
            scheme.lookup(lids[7])
        assert op.reads == 1 and op.writes == 0

    def test_labels_are_immutable(self):
        # The defining property: existing labels never change, no matter
        # how adversarial the insertions.
        scheme = OrdPath(TINY_CONFIG)
        lids = scheme.bulk_load(20)
        snapshot = [scheme.lookup(lid) for lid in lids]
        anchor = lids[10]
        for index in range(300):
            new = scheme.insert_before(anchor)
            if index % 2 == 0:
                anchor = new
        assert [scheme.lookup(lid) for lid in lids] == snapshot

    def test_logs_only_frees(self):
        # Labels are immutable: no insert shifts or invalidates anything.
        # A delete logs one zero shift that frees exactly the deleted label.
        scheme = OrdPath(TINY_CONFIG)
        lids = scheme.bulk_load(10)
        events = []
        scheme.add_log_listener(events.append)
        for _ in range(50):
            scheme.insert_before(lids[5])
        assert events == []
        doomed = [lids[3], lids[7]]
        labels = [scheme.lookup(lid) for lid in doomed]
        for lid in doomed:
            scheme.delete(lid)
        assert all(isinstance(effect, RangeShift) for effect in events)
        assert [(e.lo, e.hi, e.delta, e.freed) for e in events] == [
            (label, label, 0, 1) for label in labels
        ]

    def test_document_integration(self):
        doc = LabeledDocument(OrdPath(TINY_CONFIG), two_level_document(25))
        anchor = doc.root.children[10]
        for index in range(80):
            new = doc.insert_before(Element("x"), anchor)
            if index % 2 == 0:
                anchor = new
        doc.verify_order()

    def test_delete_and_range_delete(self):
        scheme = OrdPath(TINY_CONFIG)
        lids = scheme.bulk_load(30)
        scheme.delete(lids[5])
        deleted = scheme.delete_range(lids[10], lids[19])
        assert deleted == lids[10:20]
        assert scheme.label_count() == 19
        survivors = lids[:5] + lids[6:10] + lids[20:]
        labels = [scheme.lookup(lid) for lid in survivors]
        assert labels == sorted(labels)

    def test_unknown_lid_rejected(self):
        scheme = OrdPath(TINY_CONFIG)
        scheme.bulk_load(5)
        from repro.errors import RecordNotFoundError

        with pytest.raises((LabelingError, RecordNotFoundError)):
            scheme.insert_before(999)


class TestLabelGrowth:
    def test_concentrated_squeeze_grows_labels_linearly(self):
        # The paper: "certain insertion sequences (such as the concentrated
        # sequence...) can result in Ω(N)-bit labels" — each squeezed pair
        # adds roughly one component.
        from repro.workloads import run_concentrated

        scheme = OrdPath(TINY_CONFIG)
        run_concentrated(scheme, 50, 200)
        # 200 squeezed elements -> hundreds of bits; a BOX stays ~constant.
        assert scheme.label_bit_length() > 200

        from repro import WBox

        wbox = WBox(TINY_CONFIG)
        run_concentrated(wbox, 50, 200)
        assert wbox.label_bit_length() < 32
        assert scheme.label_bit_length() > 10 * wbox.label_bit_length()

    def test_scattered_keeps_labels_short(self):
        from repro.workloads import run_scattered

        scheme = OrdPath(TINY_CONFIG)
        run_scattered(scheme, 200, 100)
        assert scheme.label_bit_length() < 64

    def test_label_bits_accounting(self):
        assert label_bits((1,)) == 4 + 1 + 1
        assert label_bits((1, 1)) == 2 * (4 + 1 + 1)
        assert label_bits((1024,)) == 4 + 11 + 1

    def test_mean_label_bits(self):
        scheme = OrdPath(TINY_CONFIG)
        scheme.bulk_load(10)
        assert 0 < scheme.mean_label_bits() <= scheme.label_bit_length()


class TestPersistence:
    def test_round_trip(self, tmp_path):
        from repro.persist import load_scheme, save_scheme

        scheme = OrdPath(TINY_CONFIG)
        lids = scheme.bulk_load(20)
        anchor = lids[10]
        for index in range(60):
            new = scheme.insert_before(anchor)
            if index % 2 == 0:
                anchor = new
        path = str(tmp_path / "ordpath.box")
        save_scheme(scheme, path)
        reloaded = load_scheme(path)
        assert reloaded.label_count() == scheme.label_count()
        for lid in lids:
            assert reloaded.lookup(lid) == scheme.lookup(lid)
        # Still editable, still ordered.
        reloaded.insert_element_before(lids[5])
        assert reloaded.label_count() == scheme.label_count() + 2
