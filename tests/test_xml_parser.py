"""The expat-backed XML parser: supported subset, refused DTD features and
error reporting."""

import pytest

from repro.errors import XMLParseError
from repro.xml.parser import iter_events, parse


class TestBasicDocuments:
    def test_single_element(self):
        root = parse("<doc/>")
        assert root.name == "doc"
        assert root.children == []

    def test_nested_elements(self):
        root = parse("<a><b><c/></b><d/></a>")
        assert [child.name for child in root.children] == ["b", "d"]
        assert root.children[0].children[0].name == "c"

    def test_text_content(self):
        root = parse("<p>hello world</p>")
        assert root.text == "hello world"

    def test_mixed_content_uses_tails(self):
        root = parse("<p>one<b>two</b>three</p>")
        assert root.text == "one"
        assert root.children[0].text == "two"
        assert root.children[0].tail == "three"

    def test_whitespace_around_root_ignored(self):
        assert parse("  \n <a/> \n ").name == "a"

    def test_names_with_namespaces_and_punctuation(self):
        root = parse("<ns:tag-1._x/>")
        assert root.name == "ns:tag-1._x"


class TestAttributes:
    def test_double_and_single_quotes(self):
        root = parse("<a x=\"1\" y='2'/>")
        assert root.attributes == {"x": "1", "y": "2"}

    def test_whitespace_tolerated(self):
        root = parse('<a  x = "1"   />')
        assert root.attributes == {"x": "1"}

    def test_entities_in_attribute_values(self):
        root = parse('<a msg="a &amp; b &gt; c"/>')
        assert root.attributes["msg"] == "a & b > c"

    def test_duplicate_attribute_rejected(self):
        with pytest.raises(XMLParseError):
            parse('<a x="1" x="2"/>')

    def test_unquoted_value_rejected(self):
        with pytest.raises(XMLParseError):
            parse("<a x=1/>")


class TestEntitiesAndCdata:
    def test_predefined_entities(self):
        root = parse("<t>&lt;&gt;&amp;&apos;&quot;</t>")
        assert root.text == "<>&'\""

    def test_numeric_character_references(self):
        root = parse("<t>&#65;&#x42;</t>")
        assert root.text == "AB"

    def test_unknown_entity_rejected(self):
        with pytest.raises(XMLParseError):
            parse("<t>&nbsp;</t>")

    def test_cdata_is_literal(self):
        root = parse("<t><![CDATA[<not> &markup;]]></t>")
        assert root.text == "<not> &markup;"


class TestMiscMarkup:
    def test_comments_skipped(self):
        root = parse("<!-- head --><a><!-- inner --><b/></a><!-- tail -->")
        assert [child.name for child in root.children] == ["b"]

    def test_double_hyphen_in_comment_rejected(self):
        with pytest.raises(XMLParseError):
            parse("<!-- bad -- comment --><a/>")

    def test_declaration_and_doctype(self):
        root = parse('<?xml version="1.0"?><!DOCTYPE a><a/>')
        assert root.name == "a"

    def test_processing_instruction_skipped(self):
        assert parse("<?pi data?><a><?inner?></a>").name == "a"


class TestErrors:
    @pytest.mark.parametrize(
        "text",
        [
            "",
            "   ",
            "just text",
            "<a>",
            "<a></b>",
            "</a>",
            "<a/><b/>",
            "<a/>trailing",
            "<a><![CDATA[unclosed</a>",
            "<a x=\"unterminated/>",
            "<a><b></a></b>",
        ],
    )
    def test_malformed_rejected(self, text):
        with pytest.raises(XMLParseError):
            parse(text)

    def test_error_carries_offset(self):
        with pytest.raises(XMLParseError) as info:
            parse("<a></b>")
        assert info.value.offset == 3

    def test_text_outside_root_rejected(self):
        with pytest.raises(XMLParseError):
            parse("<a/>stray text")


class TestEventStream:
    def test_events_in_document_order(self):
        events = [
            (kind, payload.name if kind != "text" else payload)
            for kind, payload in iter_events("<a>x<b/>y</a>")
        ]
        assert events == [
            ("start", "a"),
            ("text", "x"),
            ("start", "b"),
            ("end", "b"),
            ("text", "y"),
            ("end", "a"),
        ]

    def test_same_object_for_start_and_end(self):
        events = list(iter_events("<a><b/></a>"))
        starts = {p for k, p in events if k == "start"}
        ends = {p for k, p in events if k == "end"}
        assert starts == ends

    def test_tree_connected_incrementally(self):
        for kind, payload in iter_events("<a><b><c/></b></a>"):
            if kind == "end" and payload.name == "c":
                assert payload.parent.name == "b"
                assert payload.parent.parent.name == "a"


class TestHostileInput:
    @pytest.mark.parametrize(
        "text",
        [
            '<!DOCTYPE a [<!ENTITY e "x">]><a>&e;</a>',
            '<!DOCTYPE a [<!ATTLIST a injected CDATA "default">]><a/>',
        ],
        ids=["entity", "attlist"],
    )
    def test_internal_subset_refused(self, text):
        with pytest.raises(XMLParseError, match="internal subset") as info:
            parse(text)
        assert info.value.offset == text.index("[")

    def test_billion_laughs_refused_before_expansion(self):
        levels = "".join(
            f'<!ENTITY l{level} "{f"&l{level - 1};" * 10}">' for level in range(1, 10)
        )
        text = f'<!DOCTYPE a [<!ENTITY l0 "lol">{levels}]><a>&l9;</a>'
        # Refused where the subset opens, before one entity is declared
        # (expat's own amplification limit would fail later, differently).
        with pytest.raises(XMLParseError, match="internal subset") as info:
            list(iter_events(text))
        assert info.value.offset == text.index("[")

    @pytest.mark.parametrize(
        "text",
        [
            '<!DOCTYPE a SYSTEM "a.dtd"><a>&e;</a>',
            '<!DOCTYPE a SYSTEM "a.dtd"><a k="x&e;y"/>',
            '<!DOCTYPE a PUBLIC "-//x//DTD a//EN" "a.dtd"><a/>',
        ],
        ids=["entity-in-content", "entity-in-attribute", "public"],
    )
    def test_external_identifier_refused(self, text):
        # Under an external DTD, expat drops an undeclared entity inside an
        # attribute value without a word: the DOCTYPE itself is refused.
        with pytest.raises(XMLParseError, match="external identifiers") as info:
            parse(text)
        assert info.value.offset == text.index(">")

    def test_undeclared_entity_in_an_attribute_refused(self):
        with pytest.raises(XMLParseError, match="undefined entity"):
            parse('<!DOCTYPE a><a k="x&e;y"/>')

    def test_external_dtd_on_disk_is_refused_unread(self, tmp_path):
        dtd = tmp_path / "a.dtd"
        dtd.write_text('<!ATTLIST a injected CDATA "default">')
        with pytest.raises(XMLParseError, match="external identifiers"):
            parse(f'<!DOCTYPE a SYSTEM "{dtd}"><a>x</a>')
