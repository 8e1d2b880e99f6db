"""Kleene pattern AST and its static analysis.

A pattern is built from type atoms, Kleene plus and sequencing. Each pattern
variable may be bound at most once, but several variables may read from the
same stream type (``SEQ(Stock A+, Stock B+)``). Compilation derives, for
every variable, the set of variables that may immediately precede it inside
a match, plus the unique start and end variables.
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


def pattern_variables(pattern: Pattern) -> list[str]:
    if isinstance(pattern, TypeAtom):
        return [pattern.name]
    if isinstance(pattern, Plus):
        return pattern_variables(pattern.child)
    return pattern_variables(pattern.left) + pattern_variables(pattern.right)


def alias_map(pattern: Pattern) -> dict[str, str]:
    """variable -> stream type."""
    out = {}

    def walk(p):
        if isinstance(p, TypeAtom):
            out[p.name] = p.source
        elif isinstance(p, Plus):
            walk(p.child)
        else:
            walk(p.left)
            walk(p.right)

    walk(pattern)
    return out


def validate_pattern(pattern: Pattern):
    names = pattern_variables(pattern)
    seen = set()
    for name in names:
        if name in seen:
            raise DuplicateTypeInPattern(f"pattern variable {name} bound twice")
        seen.add(name)


def _analyze(pattern: Pattern):
    """Return (first, last, follow) where follow is a set of (prev, next)."""
    if isinstance(pattern, TypeAtom):
        return {pattern.name}, {pattern.name}, set()
    if isinstance(pattern, Plus):
        first, last, follow = _analyze(pattern.child)
        follow = follow | {(l, f) for l in last for f in first}
        return first, last, follow
    f1, l1, fo1 = _analyze(pattern.left)
    f2, l2, fo2 = _analyze(pattern.right)
    follow = fo1 | fo2 | {(l, f) for l in l1 for f in f2}
    return f1, l2, follow


def compile_template(pattern: Pattern) -> PatternTemplate:
    """Derive start/end variables and the predecessor relation."""
    validate_pattern(pattern)
    first, last, follow = _analyze(pattern)
    # With single-binding atoms, sequences keep exactly one entry and one
    # exit variable.
    assert len(first) == 1 and len(last) == 1
    start = next(iter(first))
    end = next(iter(last))
    variables = pattern_variables(pattern)
    preds = {v: frozenset(p for (p, n) in follow if n == v) for v in variables}
    return PatternTemplate(start_type=start, end_type=end, pred_types=preds)


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
            node = TypeAtom(name=name, source=source)
        if self.peek() == "+":
            self.take("+")
            node = Plus(node)
        return node


def parse_pattern(text: str) -> Pattern:
    """Parse pattern text such as ``(SEQ(A+, B))+`` or ``Measurement M+``."""
    pattern = _PatternParser(_tokenize(text)).parse()
    validate_pattern(pattern)
    return pattern
