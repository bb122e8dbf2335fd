"""Serialize :class:`~repro.xml.model.Element` trees back to XML text.

Round-trips with :mod:`repro.xml.parser`: the test suite asserts
``parse(serialize(tree))`` reproduces the tree.  A tree holding a
character XML 1.0 cannot carry, raw or as a reference, is refused with
:class:`~repro.errors.XMLError` instead of written.
"""

from __future__ import annotations

import re
from typing import Iterator

from ..errors import XMLError
from .model import Element

# Everything outside XML 1.0's Char production.
_NOT_XML_CHAR = re.compile("[^\t\n\r\x20-\ud7ff\ue000-\ufffd\U00010000-\U0010ffff]")
# Expat turns a literal CR (and CRLF) into LF, and a literal LF or TAB in an
# attribute value into a space; character references survive both.
_TEXT_ESCAPES = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;", "\r": "&#13;"})
_ATTR_ESCAPES = str.maketrans({'"': "&quot;", "\n": "&#10;", "\t": "&#9;"}) | _TEXT_ESCAPES


def escape_text(data: str) -> str:
    """Escape character data for element content."""
    return data.translate(_TEXT_ESCAPES)


def escape_attribute(data: str) -> str:
    """Escape character data for a double-quoted attribute value."""
    return data.translate(_ATTR_ESCAPES)


def _fragments(element: Element, indent: str | None, depth: int) -> Iterator[str]:
    pad = "" if indent is None else "\n" + indent * depth
    attrs = "".join(
        f' {name}="{escape_attribute(value)}"' for name, value in element.attributes.items()
    )
    if not element.children and not element.text:
        yield f"{pad}<{element.name}{attrs}/>"
    else:
        yield f"{pad}<{element.name}{attrs}>"
        if element.text:
            yield escape_text(element.text)
        for child in element.children:
            yield from _fragments(child, indent, depth + 1)
            if child.tail:
                yield escape_text(child.tail)
        if element.children and indent is not None and not element.text:
            yield "\n" + indent * depth
        yield f"</{element.name}>"


def serialize(root: Element, indent: str | None = None, declaration: bool = False) -> str:
    """Serialize a tree to XML text.

    Parameters
    ----------
    root:
        The tree to serialize.
    indent:
        When given (e.g. ``"  "``), pretty-print with one element per line.
        Pretty-printing inserts whitespace and is therefore only
        parse-stable for trees without mixed content; the default compact
        form round-trips exactly.
    declaration:
        Prefix the output with an XML declaration.
    """
    body = "".join(_fragments(root, indent, 0))
    bad = _NOT_XML_CHAR.search(body)
    if bad is not None:
        raise XMLError(f"U+{ord(bad.group()):04X} cannot be written in XML 1.0")
    if indent is not None:
        body = body.lstrip("\n")
    if declaration:
        separator = "\n" if indent is not None else ""
        return '<?xml version="1.0" encoding="UTF-8"?>' + separator + body
    return body
