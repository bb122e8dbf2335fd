"""Serializer: escaping and parse/serialize round trips."""

import pytest

from repro import TINY_CONFIG, LabeledDocument, WBox
from repro.errors import XMLError
from repro.persist import load_document, save_document
from repro.xml.model import Element, document_tags
from repro.xml.parser import parse
from repro.xml.writer import escape_attribute, escape_text, serialize


def trees_equal(a: Element, b: Element) -> bool:
    if (a.name, a.attributes, a.text, a.tail, len(a.children)) != (
        b.name,
        b.attributes,
        b.text,
        b.tail,
        len(b.children),
    ):
        return False
    return all(trees_equal(x, y) for x, y in zip(a.children, b.children))


class TestEscaping:
    def test_text_escapes(self):
        assert escape_text("a < b & c > d") == "a &lt; b &amp; c &gt; d"

    def test_attribute_escapes_quotes(self):
        assert escape_attribute('say "hi" & <go>') == "say &quot;hi&quot; &amp; &lt;go&gt;"

    def test_whitespace_the_parser_would_normalise_is_escaped(self):
        assert escape_text("a\r\nb\tc") == "a&#13;\nb\tc"
        assert escape_attribute("a\r\nb\tc") == "a&#13;&#10;b&#9;c"


class TestSerialization:
    def test_empty_element_self_closes(self):
        assert serialize(Element("a")) == "<a/>"

    def test_attributes_rendered(self):
        assert serialize(Element("a", {"x": "1", "y": "2"})) == '<a x="1" y="2"/>'

    def test_nested(self):
        root = Element("a")
        root.make_child("b").make_child("c")
        root.make_child("d")
        assert serialize(root) == "<a><b><c/></b><d/></a>"

    def test_text_and_tail(self):
        root = parse("<p>one<b>two</b>three</p>")
        assert serialize(root) == "<p>one<b>two</b>three</p>"

    def test_declaration(self):
        assert serialize(Element("a"), declaration=True).startswith("<?xml")

    def test_pretty_print_has_indentation(self):
        root = Element("a")
        root.make_child("b")
        pretty = serialize(root, indent="  ")
        assert "\n  <b/>" in pretty


@pytest.mark.parametrize(
    "text",
    [
        "<a/>",
        "<a><b/><c/></a>",
        '<a x="1"><b y="2 &amp; 3">text</b>tail</a>',
        "<p>one<b>two</b>three<i>four</i>five</p>",
        "<t>&lt;escaped&gt; &amp; fine</t>",
    ],
)
def test_round_trip(text):
    tree = parse(text)
    assert trees_equal(parse(serialize(tree)), tree)


def test_round_trip_preserves_tag_stream():
    tree = parse("<a><b><c/><d/></b><e/></a>")
    reparsed = parse(serialize(tree))
    original = [(t.kind, t.element.name) for t in document_tags(tree)]
    again = [(t.kind, t.element.name) for t in document_tags(reparsed)]
    assert original == again


def test_saved_document_keeps_whitespace_controls(tmp_path):
    root = Element("a", {"k": "\n\t\r"})
    root.text = "\r\n"
    child = root.make_child("b", text="x\ry", k="1\r\n2")
    child.tail = "\t\r\n"
    path = str(tmp_path / "doc.box")
    save_document(LabeledDocument(WBox(TINY_CONFIG), root), path)
    assert trees_equal(load_document(path).root, root)


def test_save_refuses_a_character_xml_cannot_carry(tmp_path):
    root = Element("a", {"k": "x\x01"})
    path = tmp_path / "doc.box"
    with pytest.raises(XMLError, match="U\\+0001"):
        save_document(LabeledDocument(WBox(TINY_CONFIG), root), str(path))
    assert not path.exists()
