"""A small XPath front end over labeled documents: the structural subset of
the path expressions the paper's related work frames labeling around.
Absolute paths of child (``/``) and descendant-or-self (``//``) steps, name
tests or ``*``, and predicates on relative paths (``[mailbox/mail]``,
``[.//keyword]``) and attributes (``[@id]``, ``[@id='person0']``).

Steps walk the :class:`~repro.xml.model.Element` tree (a child test needs
every element's true depth, which labels give only after reading every
label) as node-sets: a step's output holds each element once, a descendant
step walks only the outermost context elements, and a predicate's path
stops at its first match.  The matches are put in document order by their
labels, read once into an :class:`~repro.query.streams.EpochView`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator

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

    kind: str  # "path" (a relative path matches), "attr" (exists) or "attr-eq"
    path: tuple[Step, ...] = ()
    attribute: str = ""
    value: str = ""


_TOKEN = re.compile(
    r"""
    (?P<slashslash>//) | (?P<slash>/) | (?P<lbracket>\[) | (?P<rbracket>\])
  | (?P<at>@) | (?P<eq>=) | (?P<string>'[^']*'|"[^"]*") | (?P<star>\*)
  | (?P<dotslash>\.//?) | (?P<name>[A-Za-z_][A-Za-z0-9_.\-:]*) | (?P<space>\s+)
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
        if match.lastgroup != "space":
            tokens.append((match.lastgroup, match.group()))
        position = match.end()
    return tokens


class _Parser:
    def __init__(self, tokens: list[tuple[str, str]], expression: str) -> None:
        self.tokens = tokens
        self.position = 0
        self.expression = expression

    def peek(self) -> str | None:
        return self.tokens[self.position][0] if self.position < len(self.tokens) else None

    def take(self, kind: str) -> str:
        if self.peek() != kind:
            raise XPathError(f"expected {kind} in {self.expression!r}")
        self.position += 1
        return self.tokens[self.position - 1][1]

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
                predicate = Predicate("attr-eq", attribute=attribute, value=self.take("string")[1:-1])
            else:
                predicate = Predicate("attr", attribute=attribute)
        else:
            predicate = Predicate("path", path=self.parse_steps())
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
    # An absolute path's first step is taken from the document node.
    document = Element("")
    document.children = [doc.root]
    context, memo = [document], {}
    for step in parse_xpath(expression):
        context = _apply_step(context, step, memo)
    view, element_of = document_view(doc, context)
    return [element_of[pair] for pair in view.pairs]


def _apply_step(context: list[Element], step: Step, memo: dict) -> list[Element]:
    """The elements ``step`` selects from a duplicate-free context, each once."""
    candidates = (_descendants(context) if step.axis == "descendant"
                  else (child for element in context for child in element.children))
    return [e for e in candidates if _matches(e, step, memo)]


def _matches(element: Element, step: Step, memo: dict) -> bool:
    """Whether ``element`` passes ``step``'s name test and predicates."""
    return step.name in ("*", element.name) and _holds(element, step.predicates, memo)


def _descendants(context: list[Element]) -> Iterator[Element]:
    """Every proper descendant of the context elements, once.  No step puts
    an element after one of its descendants, so a context element already
    seen lies in a walked subtree: only the outermost ones are walked."""
    seen: set[Element] = set()
    for element in context:
        if element not in seen:
            walk = element.iter()
            next(walk)  # the element itself
            for node in walk:
                seen.add(node)
                yield node


def _holds(element: Element, predicates: tuple[Predicate, ...], memo: dict) -> bool:
    """Whether ``element`` satisfies every predicate."""
    for predicate in predicates:
        if predicate.kind == "attr":
            held = predicate.attribute in element.attributes
        elif predicate.kind == "attr-eq":
            held = element.attributes.get(predicate.attribute) == predicate.value
        else:
            held = _reaches(element, predicate.path, memo)
        if not held:
            return False
    return True


def _reaches(element: Element, path: tuple[Step, ...], memo: dict) -> bool:
    """Whether the relative ``path`` selects anything from ``element``,
    stopping at the first match.  A descendant walk records in ``memo`` which
    elements have a match below, so no element is walked twice per path."""
    step, rest = path[0], path[1:]

    def selects(node: Element) -> bool:
        return _matches(node, step, memo) and (not rest or _reaches(node, rest, memo))

    if step.axis == "child":
        return any(selects(child) for child in element.children)
    below = memo.setdefault(path, {})
    if element in below:
        return below[element]
    trail = [(element, iter(element.children))]  # the walk's open elements
    while trail:
        node, children = trail[-1]
        for child in children:
            known = below.get(child)
            if known or selects(child):
                below.update((open_node, True) for open_node, _ in trail)
                return True
            if known is None:
                trail.append((child, iter(child.children)))
                break
        else:
            below[node] = False
            trail.pop()
    return False
