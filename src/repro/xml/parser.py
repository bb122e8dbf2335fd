"""XML parsing on the standard library's expat.

Expat checks well-formedness, applying XML's end-of-line and attribute-value
normalisation, and this module builds :class:`~repro.xml.model.Element`
trees (namespaces are plain prefixed names).  Nothing here reads a DTD, so a
DOCTYPE with an internal subset or an external identifier is refused: no
entity expansion, no injected attribute default, no fetched DTD, and every
entity but XML's five is an error (under an external DTD expat drops one in
an attribute value silently).  Every refusal raises
:class:`~repro.errors.XMLParseError` with a byte offset into the UTF-8 text.
"""

from __future__ import annotations

from typing import Iterator
from xml.parsers import expat

from ..errors import XMLParseError
from .model import Element


def parse(text: str) -> Element:
    """Parse ``text`` and return the root :class:`Element`.  Each run of
    character data between two tags is one ``text`` or ``tail``."""
    parser = expat.ParserCreate()
    parser.buffer_text = True
    document = Element("")  # holds the root while the parse runs
    stack = [document]
    run: list[str] = []

    def end_run() -> None:
        if run:
            parent = stack[-1]
            if parent.children:
                parent.children[-1].tail = "".join(run)
            else:
                parent.text = "".join(run)
            run.clear()

    def start(name: str, attributes: dict[str, str]) -> None:
        end_run()
        stack.append(stack[-1].append(Element(name, attributes)))

    def end(name: str) -> None:
        end_run()
        stack.pop()

    def doctype(name: str, system_id: str, public_id: str, has_internal_subset: int) -> None:
        if has_internal_subset or system_id or public_id:
            kind = "internal subsets" if has_internal_subset else "external identifiers"
            raise XMLParseError(f"DOCTYPE {kind} are not supported", parser.CurrentByteIndex)

    parser.StartElementHandler = start
    parser.EndElementHandler = end
    parser.CharacterDataHandler = run.append
    parser.StartDoctypeDeclHandler = doctype
    try:
        parser.Parse(text, True)
    except expat.ExpatError as error:
        message = expat.errors.messages[error.code]
        offset = parser.ErrorByteIndex
        if message == expat.errors.XML_ERROR_TAG_MISMATCH:
            offset -= len("</")  # expat points at the end tag's name
        raise XMLParseError(message, max(offset, 0)) from None
    root = document.children[0]
    root.parent = None
    return root


def iter_events(text: str) -> Iterator[tuple[str, Element | str]]:
    """Parse ``text``, then yield ``("start", element)``, ``("end", element)``
    (the same linked :class:`Element`) and ``("text", data)`` events in
    document order, one text event per non-empty ``text`` or ``tail``."""
    pending: list[tuple[str, Element | str]] = [("start", parse(text))]
    while pending:
        kind, payload = pending.pop()
        yield kind, payload
        if kind == "start":
            pending.append(("end", payload))
            for child in reversed(payload.children):
                if child.tail:
                    pending.append(("text", child.tail))
                pending.append(("start", child))
            if payload.text:
                pending.append(("text", payload.text))
