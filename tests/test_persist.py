"""Persistence: save/load round trips for every supported scheme."""

import io

import pytest

from repro import BBox, LabeledDocument, NaiveScheme, TINY_CONFIG, WBox, WBoxO
from repro.persist import PersistError, load_scheme, save_scheme
from repro.xml.generator import two_level_document
from repro.xml.model import Element

from .codec_reference import read_svarint, read_uvarint, write_svarint, write_uvarint
from .conftest import random_edit_session


class TestVarints:
    @pytest.mark.parametrize("value", [0, 1, 127, 128, 300, 2**31, 2**300])
    def test_uvarint_round_trip(self, value):
        buffer = io.BytesIO()
        write_uvarint(buffer, value)
        buffer.seek(0)
        assert read_uvarint(buffer) == value

    def test_negative_uvarint_rejected(self):
        with pytest.raises(PersistError):
            write_uvarint(io.BytesIO(), -1)

    @pytest.mark.parametrize("value", [0, -1, 1, -300, 300, -(2**40)])
    def test_svarint_round_trip(self, value):
        buffer = io.BytesIO()
        write_svarint(buffer, value)
        buffer.seek(0)
        assert read_svarint(buffer) == value

    def test_truncated_stream_rejected(self):
        with pytest.raises(PersistError):
            read_uvarint(io.BytesIO(b"\xff"))


def edited_scheme(factory):
    """A scheme that has seen bulk load, inserts, deletes, and splits."""
    doc = LabeledDocument(factory(), two_level_document(40))
    random_edit_session(doc, operations=120, seed=5)
    return doc


SCHEME_FACTORIES = {
    "wbox": lambda: WBox(TINY_CONFIG),
    "wbox-ordinal": lambda: WBox(TINY_CONFIG, ordinal=True),
    "wboxo": lambda: WBoxO(TINY_CONFIG),
    "bbox": lambda: BBox(TINY_CONFIG),
    "bbox-ordinal": lambda: BBox(TINY_CONFIG, ordinal=True),
    "naive": lambda: NaiveScheme(4, TINY_CONFIG),
}


@pytest.mark.parametrize("name", sorted(SCHEME_FACTORIES))
class TestRoundTrip:
    def test_labels_identical_after_reload(self, name, tmp_path):
        doc = edited_scheme(SCHEME_FACTORIES[name])
        scheme = doc.scheme
        path = str(tmp_path / "labels.box")
        save_scheme(scheme, path)
        reloaded = load_scheme(path)
        assert type(reloaded) is type(scheme)
        assert reloaded.label_count() == scheme.label_count()
        for element in doc.elements():
            for lid in (doc.start_lid(element), doc.end_lid(element)):
                assert reloaded.lookup(lid) == scheme.lookup(lid)

    def test_reloaded_scheme_stays_editable(self, name, tmp_path):
        doc = edited_scheme(SCHEME_FACTORIES[name])
        path = str(tmp_path / "labels.box")
        save_scheme(doc.scheme, path)
        reloaded = load_scheme(path)
        anchor = doc.start_lid(next(iter(doc.elements())))
        start, end = reloaded.insert_element_before(anchor)
        assert reloaded.lookup(start) < reloaded.lookup(end) < reloaded.lookup(anchor)
        reloaded.delete_element(start, end)
        if hasattr(reloaded, "check_invariants"):
            reloaded.check_invariants()

    def test_counters_reset_but_state_kept(self, name, tmp_path):
        doc = edited_scheme(SCHEME_FACTORIES[name])
        path = str(tmp_path / "labels.box")
        save_scheme(doc.scheme, path)
        reloaded = load_scheme(path)
        assert reloaded.stats.total_io == 0
        assert reloaded.clock == doc.scheme.clock


class TestInvariantsAfterReload:
    @pytest.mark.parametrize("name", ["wbox", "wbox-ordinal", "wboxo", "bbox", "bbox-ordinal"])
    def test_structural_invariants_hold(self, name, tmp_path):
        doc = edited_scheme(SCHEME_FACTORIES[name])
        path = str(tmp_path / "labels.box")
        save_scheme(doc.scheme, path)
        reloaded = load_scheme(path)
        reloaded.check_invariants()

    def test_wboxo_pairs_survive(self, tmp_path):
        doc = LabeledDocument(WBoxO(TINY_CONFIG), two_level_document(30))
        anchor = doc.root.children[10]
        for _ in range(40):
            anchor = doc.insert_before(Element("x"), anchor)
        path = str(tmp_path / "pairs.box")
        save_scheme(doc.scheme, path)
        reloaded = load_scheme(path)
        for element in doc.elements():
            start_lid, end_lid = doc.start_lid(element), doc.end_lid(element)
            assert reloaded.lookup_pair(start_lid, end_lid) == (
                reloaded.lookup(start_lid),
                reloaded.lookup(end_lid),
            )

    def test_subtree_ops_after_reload(self, tmp_path):
        doc = LabeledDocument(BBox(TINY_CONFIG), two_level_document(50))
        path = str(tmp_path / "tree.box")
        save_scheme(doc.scheme, path)
        reloaded = load_scheme(path)
        anchor = doc.start_lid(doc.root.children[25])
        new = reloaded.insert_subtree_before(anchor, 30)
        reloaded.check_invariants()
        reloaded.delete_range(new[0], new[-1])
        reloaded.check_invariants()


class TestFormat:
    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.box"
        path.write_bytes(b"NOTABOX!" + b"\x00" * 32)
        with pytest.raises(PersistError):
            load_scheme(str(path))

    def test_file_is_compact(self, tmp_path):
        scheme = WBox(TINY_CONFIG)
        scheme.bulk_load(500)
        path = tmp_path / "compact.box"
        save_scheme(scheme, str(path))
        # Varint encoding: well under 16 bytes per label.
        assert path.stat().st_size < 500 * 16

    def test_naive_big_labels_survive(self, tmp_path):
        scheme = NaiveScheme(64, TINY_CONFIG)  # labels far beyond 64 bits? no: ~70 bits
        lids = scheme.bulk_load(20)
        path = str(tmp_path / "big.box")
        save_scheme(scheme, path)
        reloaded = load_scheme(path)
        for lid in lids:
            assert reloaded.lookup(lid) == scheme.lookup(lid)
        assert reloaded.label_bit_length() == scheme.label_bit_length()
