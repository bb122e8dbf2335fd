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

    def parse_steps(self) -> tuple[Step, ...]:
        steps: list[Step] = []
        # A relative path's first step may leave its axis out or give it
        # as "./" or ".//" (an absolute path starts with "/" or "//").
        first = True
        while True:
            token = self.peek()
            if token in ("slash", "slashslash") or (first and token == "dotslash"):
                axis = "descendant" if self.take(token).endswith("//") else "child"
            elif first and token in ("name", "star"):
                axis = "child"
            else:
                break
            name_token = self.peek()
            if name_token not in ("name", "star"):
                raise XPathError(f"expected a name test in {self.expression!r}")
            name = self.take(name_token)
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
            path = self.parse_steps()
            predicate = Predicate("path", path=path)
        self.take("rbracket")
        return predicate


def parse_xpath(expression: str) -> tuple[Step, ...]:
    """Parse an absolute path expression into location steps."""
    parser = _Parser(_tokenize(expression), expression)
    if parser.peek() not in ("slash", "slashslash"):
        raise XPathError("path must start with / or //")
    steps = parser.parse_steps()
    if parser.position != len(parser.tokens):
        raise XPathError(f"trailing tokens in {expression!r}")
    return steps


def evaluate(doc: LabeledDocument, expression: str) -> list[Element]:
    """Evaluate an absolute path expression; returns matching elements in
    document order (by label), each once."""
    if doc.root is None:
        return []
    # The document node, whose one child is the root: an absolute path's
    # first step is taken from it like every later step.
    document = Element("")
    document.children = [doc.root]
    context = [document]
    for step in parse_xpath(expression):
        context = _apply_step(context, step)
    view, element_of = document_view(doc, context)
    return [element_of[pair] for pair in view.pairs]


def _apply_step(context: list[Element], step: Step) -> list[Element]:
    output: list[Element] = []
    for element in context:
        if step.axis == "child":
            candidates = element.children
        else:
            candidates = [e for e in element.iter() if e is not element]
        for candidate in candidates:
            if step.name in ("*", candidate.name) and _holds(candidate, step.predicates):
                output.append(candidate)
    return output


def _holds(element: Element, predicates: tuple[Predicate, ...]) -> bool:
    """Whether ``element`` satisfies every predicate."""
    for predicate in predicates:
        if predicate.kind == "attr":
            held = predicate.attribute in element.attributes
        elif predicate.kind == "attr-eq":
            held = element.attributes.get(predicate.attribute) == predicate.value
        else:  # a relative path: every step must match something
            context = [element]
            for step in predicate.path:
                context = _apply_step(context, step)
            held = bool(context)
        if not held:
            return False
    return True
