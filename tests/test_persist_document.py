"""Document-level persistence: the whole LabeledDocument (structure + XML
tree + element↔LID binding) round-trips, so saved files are queryable."""

import builtins
import errno

import pytest

from repro import BBox, LabeledDocument, NaiveScheme, TINY_CONFIG, WBox, WBoxO
from repro.persist import (
    PersistError,
    load_document,
    load_scheme,
    save_document,
    save_scheme,
)
from repro.query import containment_join_by_name, xpath
from repro.xml.model import Element
from repro.xml.xmark import xmark_document

from .conftest import random_edit_session, verify_document

FACTORIES = {
    "wbox": lambda: WBox(TINY_CONFIG),
    "wboxo": lambda: WBoxO(TINY_CONFIG),
    "bbox": lambda: BBox(TINY_CONFIG),
    "naive": lambda: NaiveScheme(4, TINY_CONFIG),
}


@pytest.mark.parametrize("name", sorted(FACTORIES))
class TestRoundTrip:
    def test_binding_survives(self, name, tmp_path):
        doc = LabeledDocument(FACTORIES[name](), xmark_document(3, seed=5))
        random_edit_session(doc, operations=60, seed=6)
        path = str(tmp_path / "doc.box")
        save_document(doc, path)
        reloaded = load_document(path)
        verify_document(reloaded)
        assert len(reloaded) == len(doc)

    def test_queries_equal(self, name, tmp_path):
        doc = LabeledDocument(FACTORIES[name](), xmark_document(3, seed=5))
        path = str(tmp_path / "doc.box")
        save_document(doc, path)
        reloaded = load_document(path)
        before = containment_join_by_name(doc, "item", "mail")
        after = containment_join_by_name(reloaded, "item", "mail")
        assert len(before) == len(after)
        assert len(xpath(reloaded, "//person")) == len(xpath(doc, "//person"))

    def test_reloaded_document_is_editable(self, name, tmp_path):
        doc = LabeledDocument(FACTORIES[name](), xmark_document(2, seed=7))
        path = str(tmp_path / "doc.box")
        save_document(doc, path)
        reloaded = load_document(path)
        people = reloaded.root.find("people")
        reloaded.append_child(Element("person", {"id": "late"}), people)
        verify_document(reloaded)
        assert len(xpath(reloaded, '//person[@id="late"]')) == 1


class TestCompatibility:
    def test_scheme_only_load_ignores_document_section(self, tmp_path):
        doc = LabeledDocument(WBox(TINY_CONFIG), xmark_document(2, seed=8))
        path = str(tmp_path / "doc.box")
        save_document(doc, path)
        scheme = load_scheme(path)
        assert scheme.label_count() == doc.scheme.label_count()

    def test_scheme_only_file_has_no_document(self, tmp_path):
        from repro.persist import save_scheme

        scheme = WBox(TINY_CONFIG)
        scheme.bulk_load(10)
        path = str(tmp_path / "scheme.box")
        save_scheme(scheme, path)
        with pytest.raises(PersistError):
            load_document(path)

    def test_empty_document_rejected(self, tmp_path):
        doc = LabeledDocument(WBox(TINY_CONFIG))
        with pytest.raises(PersistError):
            save_document(doc, str(tmp_path / "x.box"))

    def test_non_document_rejected(self, tmp_path):
        with pytest.raises(PersistError):
            save_document(WBox(TINY_CONFIG), str(tmp_path / "x.box"))


class _TornFile:
    """A file handle whose writes put half their bytes down, then fail."""

    def __init__(self, handle):
        self._handle = handle

    def write(self, data):
        self._handle.write(bytes(data[: len(data) // 2]))
        raise OSError(errno.ENOSPC, "disk full halfway through a write")

    def __getattr__(self, name):
        return getattr(self._handle, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self._handle.close()


class TestAtomicSave:
    @pytest.mark.parametrize("save", [save_document, save_scheme], ids=["document", "scheme"])
    def test_a_save_that_fails_halfway_leaves_the_old_snapshot(
        self, tmp_path, monkeypatch, save
    ):
        """A crash during ``repro label --save`` must not cost the snapshot
        that was already there."""
        doc = LabeledDocument(WBox(TINY_CONFIG), xmark_document(2, seed=8))
        path = str(tmp_path / "doc.box")
        save_document(doc, path)
        saved = len(doc)
        random_edit_session(doc, operations=20, seed=9)
        real_open = builtins.open

        def tearing_open(file, mode="r", *args, **kwargs):
            handle = real_open(file, mode, *args, **kwargs)
            return _TornFile(handle) if "w" in mode or "a" in mode else handle

        monkeypatch.setattr(builtins, "open", tearing_open)
        with pytest.raises(OSError, match="halfway"):
            save(doc if save is save_document else doc.scheme, path)
        monkeypatch.undo()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["doc.box"]  # no temp file left
        reloaded = load_document(path)
        verify_document(reloaded)
        assert len(reloaded) == saved != len(doc)


class TestCLIIntegration:
    def test_label_save_then_query(self, tmp_path, capsys):
        from repro.cli import main
        from repro.xml.writer import serialize

        xml_path = tmp_path / "site.xml"
        xml_path.write_text(serialize(xmark_document(3, seed=9)), encoding="utf-8")
        box_path = tmp_path / "site.box"
        assert main(["label", str(xml_path), "--save", str(box_path)]) == 0
        capsys.readouterr()
        assert main(["query", str(box_path), "//item"]) == 0
        output = capsys.readouterr().out
        assert "match(es)" in output

    def test_inspect_document_file(self, tmp_path, capsys):
        from repro.cli import main
        from repro.xml.writer import serialize

        xml_path = tmp_path / "site.xml"
        xml_path.write_text(serialize(xmark_document(2, seed=10)), encoding="utf-8")
        box_path = tmp_path / "site.box"
        main(["label", str(xml_path), "--save", str(box_path), "--scheme", "bbox"])
        capsys.readouterr()
        assert main(["inspect", str(box_path)]) == 0
        assert "invariants: OK" in capsys.readouterr().out
