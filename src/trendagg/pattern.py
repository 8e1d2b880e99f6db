"""Kleene pattern AST and its static analysis.

A pattern is built from type atoms, Kleene plus and sequencing. Each pattern
variable may be bound at most once, but several variables may read from the
same stream type (``SEQ(Stock A+, Stock B+)``). One walk of the AST
(``analyze_pattern``) derives, for every variable, the set of variables
that may immediately precede it inside a match, plus the unique start and
end variables and each variable's stream type.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Union

from .errors import DuplicateTypeInPattern, QuerySyntaxError


@dataclass(frozen=True)
class TypeAtom:
    name: str           # pattern variable
    source: str         # stream event type it matches

    def __str__(self):
        base = self.name if self.name == self.source else f"{self.source} {self.name}"
        return base


@dataclass(frozen=True)
class Plus:
    child: "Pattern"

    def __str__(self):
        child = str(self.child)
        if isinstance(self.child, TypeAtom):
            return f"{child}+"
        return f"({child})+"


@dataclass(frozen=True)
class Seq:
    left: "Pattern"
    right: "Pattern"

    def __str__(self):
        return f"SEQ({self.left}, {self.right})"


Pattern = Union[TypeAtom, Plus, Seq]


@dataclass(frozen=True)
class PatternTemplate:
    start_type: str
    end_type: str
    pred_types: dict  # variable -> frozenset of predecessor variables

    @property
    def types(self):
        return frozenset(self.pred_types)


def analyze_pattern(pattern: Pattern) -> tuple[PatternTemplate, dict]:
    """The pattern's template and its variable -> stream type map, in
    pattern order, from one walk of the AST. Raises
    ``DuplicateTypeInPattern`` at the first variable bound twice."""
    follow = []  # (prev, next) pairs
    sources = {}

    def walk(p):
        """Entry and exit variable of ``p``: an atom is its own, a plus
        keeps its child's, a sequence takes its left part's entry and its
        right part's exit."""
        if isinstance(p, TypeAtom):
            if p.name in sources:
                raise DuplicateTypeInPattern(f"pattern variable {p.name} bound twice")
            sources[p.name] = p.source
            return p.name, p.name
        if isinstance(p, Plus):
            entry, exit_ = walk(p.child)
            follow.append((exit_, entry))
            return entry, exit_
        entry, middle = walk(p.left)
        after, exit_ = walk(p.right)
        follow.append((middle, after))
        return entry, exit_

    start, end = walk(pattern)
    preds = {v: frozenset(p for p, n in follow if n == v) for v in sources}
    return PatternTemplate(start_type=start, end_type=end, pred_types=preds), sources


_TOKEN = re.compile(r"\s*([A-Za-z_][A-Za-z0-9_]*|[(),+])")


def _tokenize(text):
    pos = 0
    tokens = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise QuerySyntaxError(f"bad pattern text near {text[pos:pos+10]!r}")
            break
        tokens.append(m.group(1))
        pos = m.end()
    return tokens


class _PatternParser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.i = 0
        self.names = set()  # variables met so far (atoms come in pattern order)

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def take(self, expected=None):
        tok = self.peek()
        if tok is None or (expected is not None and tok != expected):
            raise QuerySyntaxError(
                f"expected {expected or 'pattern token'}, got {tok!r}"
            )
        self.i += 1
        return tok

    def parse(self):
        node = self.term()
        if self.peek() is not None:
            raise QuerySyntaxError(f"trailing pattern tokens at {self.peek()!r}")
        return node

    def term(self):
        tok = self.peek()
        if tok is None:
            raise QuerySyntaxError("empty pattern")
        if tok.upper() == "SEQ":
            self.take()
            self.take("(")
            parts = [self.term()]
            while self.peek() == ",":
                self.take(",")
                parts.append(self.term())
            self.take(")")
            if len(parts) < 2:
                raise QuerySyntaxError("SEQ needs at least two sub-patterns")
            node = parts[-1]
            for part in reversed(parts[:-1]):
                node = Seq(part, node)
        elif tok == "(":
            self.take("(")
            node = self.term()
            self.take(")")
        else:
            source = self.take()
            name = source
            nxt = self.peek()
            if nxt is not None and nxt not in "(),+" and nxt.upper() != "SEQ":
                name = self.take()
            if name in self.names:
                raise DuplicateTypeInPattern(f"pattern variable {name} bound twice")
            self.names.add(name)
            node = TypeAtom(name=name, source=source)
        if self.peek() == "+":
            self.take("+")
            node = Plus(node)
        return node


def parse_pattern(text: str) -> Pattern:
    """Parse pattern text such as ``(SEQ(A+, B))+`` or ``Measurement M+``."""
    return _PatternParser(_tokenize(text)).parse()
