"""A small XPath front end over labeled documents.

Path expressions are "the basic building blocks of XPath" the paper's
related-work section frames the whole labeling problem around; this module
evaluates their structural subset:

* absolute paths with child (``/``) and descendant-or-self (``//``) steps;
* name tests (``item``), wildcards (``*``);
* structural predicates: ``[child]``, ``[.//descendant]``, nested paths;
* attribute existence and equality predicates: ``[@id]``, ``[@id="x"]``.

Examples::

    evaluate(doc, "/site/regions//item")
    evaluate(doc, "//person[@id='person0']")
    evaluate(doc, "//item[mailbox/mail]/name")

Steps and predicates walk the :class:`~repro.xml.model.Element` tree: a
child test needs every element's true depth, which labels alone give only
after reading every label.  The matches are put in document order by their
labels, read once into an :class:`~repro.query.streams.EpochView`.  The
grammar is deliberately tiny — no ordering predicates, no functions, no
reverse axes.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from ..core.document import LabeledDocument
from ..errors import ReproError
from ..xml.model import Element
from .streams import document_view


class XPathError(ReproError):
    """The expression is outside the supported subset or malformed."""


@dataclass(frozen=True)
class Step:
    """One location step: an axis, a name test, and predicates."""

    axis: str  # "child" | "descendant"
    name: str  # tag name or "*"
    predicates: tuple["Predicate", ...] = ()


@dataclass(frozen=True)
class Predicate:
    """A structural or attribute predicate."""

    #: "path" (a relative path must match), "attr" (attribute exists),
    #: or "attr-eq" (attribute equals a literal).
    kind: str
    path: tuple[Step, ...] = ()
    attribute: str = ""
    value: str = ""


_TOKEN = re.compile(
    r"""
    (?P<slashslash>//)
  | (?P<slash>/)
  | (?P<lbracket>\[)
  | (?P<rbracket>\])
  | (?P<at>@)
  | (?P<eq>=)
  | (?P<string>'[^']*'|"[^"]*")
  | (?P<star>\*)
  | (?P<dotslash>\.//?)
  | (?P<name>[A-Za-z_][A-Za-z0-9_.\-:]*)
  | (?P<space>\s+)
    """,
    re.VERBOSE,
)


def _tokenize(expression: str) -> list[tuple[str, str]]:
    tokens: list[tuple[str, str]] = []
    position = 0
    while position < len(expression):
        match = _TOKEN.match(expression, position)
        if not match:
            raise XPathError(f"unexpected character at {position}: {expression[position:]!r}")
        kind = match.lastgroup
        assert kind is not None
        if kind != "space":
            tokens.append((kind, match.group()))
        position = match.end()
    return tokens


class _Parser:
    def __init__(self, tokens: list[tuple[str, str]], expression: str) -> None:
        self.tokens = tokens
        self.position = 0
        self.expression = expression

    def peek(self) -> str | None:
        if self.position < len(self.tokens):
            return self.tokens[self.position][0]
        return None

    def take(self, kind: str) -> str:
        if self.peek() != kind:
            raise XPathError(f"expected {kind} in {self.expression!r}")
        value = self.tokens[self.position][1]
        self.position += 1
        return value

    def parse_absolute(self) -> tuple[Step, ...]:
        if self.peek() not in ("slash", "slashslash"):
            raise XPathError("path must start with / or //")
        return self.parse_steps(initial_axis_required=True)

    def parse_steps(self, initial_axis_required: bool) -> tuple[Step, ...]:
        steps: list[Step] = []
        first = True
        while True:
            token = self.peek()
            if token == "slashslash":
                self.take("slashslash")
                axis = "descendant"
            elif token == "slash":
                self.take("slash")
                axis = "child"
            elif first and not initial_axis_required and token in ("name", "star", "dotslash"):
                axis = "child"
                if token == "dotslash":
                    value = self.take("dotslash")
                    axis = "descendant" if value == ".//" else "child"
            else:
                break
            name_token = self.peek()
            if name_token == "star":
                self.take("star")
                name = "*"
            elif name_token == "name":
                name = self.take("name")
            else:
                raise XPathError(f"expected a name test in {self.expression!r}")
            predicates = []
            while self.peek() == "lbracket":
                predicates.append(self.parse_predicate())
            steps.append(Step(axis, name, tuple(predicates)))
            first = False
        if not steps:
            raise XPathError(f"empty path in {self.expression!r}")
        return tuple(steps)

    def parse_predicate(self) -> Predicate:
        self.take("lbracket")
        if self.peek() == "at":
            self.take("at")
            attribute = self.take("name")
            if self.peek() == "eq":
                self.take("eq")
                literal = self.take("string")[1:-1]
                predicate = Predicate("attr-eq", attribute=attribute, value=literal)
            else:
                predicate = Predicate("attr", attribute=attribute)
        else:
            path = self.parse_steps(initial_axis_required=False)
            predicate = Predicate("path", path=path)
        self.take("rbracket")
        return predicate


def parse_xpath(expression: str) -> tuple[Step, ...]:
    """Parse an absolute path expression into location steps."""
    parser = _Parser(_tokenize(expression), expression)
    steps = parser.parse_absolute()
    if parser.position != len(parser.tokens):
        raise XPathError(f"trailing tokens in {expression!r}")
    return steps


def evaluate(doc: LabeledDocument, expression: str) -> list[Element]:
    """Evaluate an absolute path expression; returns matching elements in
    document order (by label), each once."""
    if doc.root is None:
        return []
    steps = parse_xpath(expression)
    context: list[Element] = _initial_context(doc.root, steps[0])
    context = [e for e in context if _predicates_hold(e, steps[0].predicates)]
    for step in steps[1:]:
        context = _apply_step(context, step)
    view, element_of = document_view(doc, context)
    return [element_of[pair] for pair in view.pairs]


def _initial_context(root: Element, step: Step) -> list[Element]:
    if step.axis == "child":
        # An absolute child step matches the document root itself.
        return [root] if step.name in ("*", root.name) else []
    return [element for element in root.iter() if step.name in ("*", element.name)]


def _apply_step(context: list[Element], step: Step) -> list[Element]:
    output: list[Element] = []
    for element in context:
        if step.axis == "child":
            candidates = element.children
        else:
            candidates = [e for e in element.iter() if e is not element]
        for candidate in candidates:
            if step.name not in ("*", candidate.name):
                continue
            if _predicates_hold(candidate, step.predicates):
                output.append(candidate)
    return output


def _predicates_hold(element: Element, predicates: tuple[Predicate, ...]) -> bool:
    for predicate in predicates:
        if predicate.kind == "attr":
            if predicate.attribute not in element.attributes:
                return False
        elif predicate.kind == "attr-eq":
            if element.attributes.get(predicate.attribute) != predicate.value:
                return False
        else:
            if not _relative_match(element, predicate.path):
                return False
    return True


def _relative_match(element: Element, steps: tuple[Step, ...]) -> bool:
    context = [element]
    for step in steps:
        context = _apply_step(context, step)
        if not context:
            return False
    return True
