"""Query text parsing and static analysis.

A query has up to six clauses, split on their keywords (line breaks are
optional whitespace):

    RETURN <group attrs and aggregates>
    PATTERN <kleene pattern>
    SEMANTICS any | next | cont (long names accepted)
    WHERE <predicates joined by AND>          (optional)
    GROUP-BY <attributes>                     (optional)
    WITHIN <duration> SLIDE <duration>        (SLIDE optional -> tumbling)

Predicate forms: ``[attr]`` (all trend events share the value, hoisted into
the partition key), ``X.attr OP constant``, ``X.attr OP Y.attr`` and
``X.attr OP NEXT(X).attr`` (the latter two constrain which events may sit
next to each other inside a trend: the left variable's event comes first,
and a pair in which it never directly precedes the right one's is a
``QuerySyntaxError``).
"""

from __future__ import annotations

import enum
import operator
import re
from dataclasses import dataclass
from typing import Optional, Union

from .errors import InputError, QuerySyntaxError, UnknownAttribute, UnknownType
from .events import Event, Schema, max_ms_digits
from .pattern import Pattern, PatternTemplate, analyze_pattern, parse_pattern


class Semantics(enum.Enum):
    ANY = "any"
    NEXT = "next"
    CONT = "cont"


_SEMANTICS_NAMES = {
    "any": Semantics.ANY,
    "skip-till-any-match": Semantics.ANY,
    "next": Semantics.NEXT,
    "skip-till-next-match": Semantics.NEXT,
    "cont": Semantics.CONT,
    "contiguous": Semantics.CONT,
}


class Op(enum.Enum):
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="
    EQ = "="
    NE = "!="

    @property
    def apply(self):
        """The comparison as a function of its two operands."""
        return _OPERATORS[self]


_OPERATORS = {
    Op.LT: operator.lt,
    Op.LE: operator.le,
    Op.GT: operator.gt,
    Op.GE: operator.ge,
    Op.EQ: operator.eq,
    Op.NE: operator.ne,
}


@dataclass(frozen=True)
class Local:
    """``X.attr OP constant`` - filters events before they can match X."""

    variable: str
    attr: str
    op: Op
    constant: object


@dataclass(frozen=True)
class Equivalence:
    """``[attr]`` - all trend events agree on attr; a partition key."""

    attr: str


@dataclass(frozen=True)
class Adjacent:
    """``P.attr OP N.attr2`` - constrains N-events directly following
    P-events inside a trend. The self form ``X.attr OP NEXT(X).attr2``
    compares an event with its successor of the same variable."""

    prev_variable: str
    prev_attr: str
    op: Op
    next_variable: str
    next_attr: str


Predicate = Union[Local, Equivalence, Adjacent]


class AggKind(enum.Enum):
    COUNT_STAR = "COUNT(*)"
    COUNT = "COUNT"
    MIN = "MIN"
    MAX = "MAX"
    SUM = "SUM"
    AVG = "AVG"


@dataclass(frozen=True)
class AggSpec:
    kind: AggKind
    variable: Optional[str] = None
    attr: Optional[str] = None

    def __str__(self):
        if self.kind is AggKind.COUNT_STAR:
            return "COUNT(*)"
        if self.kind is AggKind.COUNT:
            return f"COUNT({self.variable})"
        return f"{self.kind.value}({self.variable}.{self.attr})"


@dataclass(frozen=True)
class Query:
    pattern: Pattern
    template: PatternTemplate
    aliases: dict            # variable -> stream type
    semantics: Semantics
    predicates: tuple
    group_by: tuple          # GROUP-BY attributes
    within_ms: int
    slide_ms: int
    aggregates: tuple        # AggSpec, in RETURN order

    @property
    def partition_attrs(self):
        """GROUP-BY attributes plus equivalence attributes, dedup'd."""
        out = list(self.group_by)
        for p in self.predicates:
            if isinstance(p, Equivalence) and p.attr not in out:
                out.append(p.attr)
        return tuple(out)

    @property
    def local_predicates(self):
        return tuple(p for p in self.predicates if isinstance(p, Local))

    @property
    def adjacent_predicates(self):
        return tuple(p for p in self.predicates if isinstance(p, Adjacent))

    @property
    def adjacency(self) -> dict:
        """The adjacency checks of each predecessor pair, in query order:
        ``(prev, next) -> ((prev_attr, compare, next_attr), ...)``.
        ``parse_query`` admits only pairs that may sit next to each other."""
        table = {}
        for p in self.adjacent_predicates:
            table.setdefault((p.prev_variable, p.next_variable), []).append(
                (p.prev_attr, p.op.apply, p.next_attr)
            )
        return {pair: tuple(checks) for pair, checks in table.items()}


# --------------------------------------------------------------------------
# Parsing

# A quoted string, or a keyword in group 1: keywords split the text only
# outside quotes.
_QUOTED = r"'[^']*'|\"[^\"]*\""
_CLAUSE_RE = re.compile(
    rf"{_QUOTED}|\b(RETURN|PATTERN|SEMANTICS|WHERE|GROUP-BY|WITHIN|SLIDE)\b",
    re.IGNORECASE,
)
_AND_RE = re.compile(rf"{_QUOTED}|\b(AND)\b", re.IGNORECASE)

_DURATION_RE = re.compile(
    r"^\s*(\d+)\s*"
    r"(ms|millis|milliseconds|s|sec|secs|second|seconds|"
    r"min|mins|minute|minutes|h|hour|hours)?\s*$",
    re.IGNORECASE,
)

_UNIT_MS = {
    None: 1,
    "ms": 1, "millis": 1, "milliseconds": 1,
    "s": 1000, "sec": 1000, "secs": 1000, "second": 1000, "seconds": 1000,
    "min": 60_000, "mins": 60_000, "minute": 60_000, "minutes": 60_000,
    "h": 3_600_000, "hour": 3_600_000, "hours": 3_600_000,
}


def parse_duration_ms(text: str) -> int:
    m = _DURATION_RE.match(text)
    if not m:
        raise QuerySyntaxError(f"bad duration {text.strip()!r}")
    unit = m.group(2).lower() if m.group(2) else None
    try:
        ms = int(m.group(1)) * _UNIT_MS[unit]
    except ValueError:  # more digits than int() reads
        ms = float("inf")
    digits = max_ms_digits()
    if digits and ms >= 10**digits:
        raise QuerySyntaxError(f"duration {text.strip()!r} has more than {digits} digits in ms")
    return ms


def _split_unquoted(keywords, text: str) -> list[str]:
    """``text`` split on the keywords that ``keywords`` matches outside
    quotes: the pieces, with each keyword between the two it separates."""
    parts, start = [], 0
    for m in keywords.finditer(text):
        if m.group(1) is not None:
            parts += [text[start : m.start()], m.group(1)]
            start = m.end()
    return [*parts, text[start:]]


def _split_clauses(text: str) -> dict[str, str]:
    parts = _split_unquoted(_CLAUSE_RE, text)
    if parts[0].strip():
        raise QuerySyntaxError(f"unexpected text before first clause: {parts[0].strip()!r}")
    clauses = {}
    for i in range(1, len(parts), 2):
        keyword = parts[i].upper()
        body = parts[i + 1].strip()
        if keyword in clauses:
            raise QuerySyntaxError(f"duplicate {keyword} clause")
        clauses[keyword] = body
    for required in ("RETURN", "PATTERN", "SEMANTICS", "WITHIN"):
        if required not in clauses:
            raise QuerySyntaxError(f"missing {required} clause")
    return clauses


def _split_top_level_commas(text: str) -> list[str]:
    items, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        elif ch == "," and depth == 0:
            items.append(text[start:i].strip())
            start = i + 1
    tail = text[start:].strip()
    if tail:
        items.append(tail)
    return [it for it in items if it]


_IDENT = r"[A-Za-z_][A-Za-z0-9_]*"
_AGG_RE = re.compile(
    rf"^(COUNT|MIN|MAX|SUM|AVG)\s*\(\s*(\*|{_IDENT})\s*(?:\.\s*({_IDENT})\s*)?\)$",
    re.IGNORECASE,
)
_REF_RE = re.compile(rf"^({_IDENT})\.({_IDENT})$")
_NEXT_REF_RE = re.compile(rf"^NEXT\s*\(\s*({_IDENT})\s*\)\s*\.\s*({_IDENT})$", re.IGNORECASE)
_OP_RE = re.compile(r"(!=|<>|<=|>=|==|=|<|>)")
_NUMBER_RE = re.compile(r"^[+-]?(\d+(\.\d*)?|\.\d+)([eE][+-]?\d+)?$")


def _parse_constant(text: str):
    text = text.strip()
    if (text.startswith("'") and text.endswith("'") and len(text) >= 2) or (
        text.startswith('"') and text.endswith('"') and len(text) >= 2
    ):
        return text[1:-1]
    if _NUMBER_RE.match(text):
        try:
            return int(text)
        except ValueError:
            return float(text)
    if re.match(rf"^{_IDENT}$", text):
        return text  # bare word: string constant
    raise QuerySyntaxError(f"bad constant {text!r}")


class _SchemaView:
    """Resolves variable.attr references through the alias map."""

    def __init__(self, schema: Schema, aliases: dict):
        self.schema = schema
        self.aliases = aliases

    def check_variable(self, variable):
        if variable not in self.aliases:
            raise UnknownType(f"{variable} is not bound in the pattern")
        source = self.aliases[variable]
        if not self.schema.has_type(source):
            raise UnknownType(f"event type {source} is not in the schema")

    def kind(self, variable, attr):
        self.check_variable(variable)
        source = self.aliases[variable]
        kind = self.schema.kind_of(source, attr)
        if kind is None:
            raise UnknownAttribute(f"{source} has no attribute {attr}")
        return kind


def _check_comparable(left_kind, right_kind, item):
    numeric = ("int", "float")
    if (left_kind in numeric) != (right_kind in numeric):
        raise QuerySyntaxError(f"incomparable attribute kinds in {item!r}")


def _parse_where(body: str, view: _SchemaView) -> list[Predicate]:
    predicates = []
    for item in _split_unquoted(_AND_RE, body)[::2]:
        item = item.strip()
        if not item:
            continue
        if item.startswith("[") and item.endswith("]"):
            attr = item[1:-1].strip()
            if not re.match(rf"^{_IDENT}$", attr):
                raise QuerySyntaxError(f"bad equivalence predicate {item!r}")
            predicates.append(Equivalence(attr))
            continue
        pieces = _OP_RE.split(item, maxsplit=1)
        if len(pieces) != 3:
            raise QuerySyntaxError(f"bad predicate {item!r}")
        lhs, op_text, rhs = (p.strip() for p in pieces)
        op_text = {"==": "=", "<>": "!="}.get(op_text, op_text)
        op = Op(op_text)
        lm = _REF_RE.match(lhs)
        if not lm:
            raise QuerySyntaxError(f"left side of {item!r} must be Variable.attr")
        lvar, lattr = lm.group(1), lm.group(2)
        lkind = view.kind(lvar, lattr)
        nm = _NEXT_REF_RE.match(rhs)
        rm = _REF_RE.match(rhs)
        if nm:
            rvar, rattr = nm.group(1), nm.group(2)
            if rvar != lvar:
                raise QuerySyntaxError(
                    f"NEXT({rvar}) must refer to the left variable {lvar}"
                )
            _check_comparable(lkind, view.kind(rvar, rattr), item)
            predicates.append(Adjacent(lvar, lattr, op, rvar, rattr))
        elif rm and rm.group(1) in view.aliases:
            rvar, rattr = rm.group(1), rm.group(2)
            _check_comparable(lkind, view.kind(rvar, rattr), item)
            predicates.append(Adjacent(lvar, lattr, op, rvar, rattr))
        else:
            constant = _parse_constant(rhs)
            if lkind in ("int", "float") and isinstance(constant, str):
                raise QuerySyntaxError(
                    f"{lvar}.{lattr} is numeric but {rhs!r} is not"
                )
            if lkind == "str" and not isinstance(constant, str):
                raise QuerySyntaxError(f"{lvar}.{lattr} is a string but {rhs!r} is not")
            if lkind == "float" and isinstance(constant, int):
                constant = float(constant)
            predicates.append(Local(lvar, lattr, op, constant))
    return predicates


def _parse_return(body: str, view: _SchemaView):
    aggregates, attrs = [], []
    for item in _split_top_level_commas(body):
        m = _AGG_RE.match(item)
        if m:
            func = m.group(1).upper()
            target = m.group(2)
            attr = m.group(3)
            if func == "COUNT" and target == "*":
                aggregates.append(AggSpec(AggKind.COUNT_STAR))
                continue
            if target == "*":
                raise QuerySyntaxError(f"{func}(*) is not a thing")
            view.check_variable(target)
            if func == "COUNT":
                if attr is not None:
                    raise QuerySyntaxError("COUNT takes a variable, not an attribute")
                aggregates.append(AggSpec(AggKind.COUNT, target))
                continue
            if attr is None:
                raise QuerySyntaxError(f"{func} needs Variable.attr")
            kind = view.kind(target, attr)
            if kind == "str":
                raise QuerySyntaxError(f"{func}({target}.{attr}) needs a numeric attribute")
            aggregates.append(AggSpec(AggKind[func], target, attr))
        elif re.match(rf"^{_IDENT}$", item):
            if item in attrs:
                raise QuerySyntaxError(f"duplicate RETURN attribute {item!r}")
            attrs.append(item)
        else:
            raise QuerySyntaxError(f"bad RETURN item {item!r}")
    return aggregates, attrs


def parse_query(text: str, schema: Schema) -> Query:
    """Parse query text against a schema into a fully-resolved Query."""
    clauses = _split_clauses(text)

    pattern = parse_pattern(clauses["PATTERN"])
    template, aliases = analyze_pattern(pattern)
    view = _SchemaView(schema, aliases)
    for variable in aliases:
        view.check_variable(variable)

    sem_text = clauses["SEMANTICS"].strip().lower()
    if sem_text not in _SEMANTICS_NAMES:
        raise QuerySyntaxError(f"unknown semantics {clauses['SEMANTICS'].strip()!r}")
    semantics = _SEMANTICS_NAMES[sem_text]

    predicates = _parse_where(clauses["WHERE"], view) if "WHERE" in clauses else []
    preds = template.pred_types
    for p in predicates:
        if isinstance(p, Adjacent) and p.prev_variable not in preds[p.next_variable]:
            raise QuerySyntaxError(
                f"{p.prev_variable} never directly precedes {p.next_variable} "
                "in the pattern"
            )

    group_by = []
    if "GROUP-BY" in clauses:
        for item in _split_top_level_commas(clauses["GROUP-BY"]):
            if not re.match(rf"^{_IDENT}$", item):
                raise QuerySyntaxError(f"bad GROUP-BY item {item!r}")
            if item in group_by:
                raise QuerySyntaxError(f"duplicate GROUP-BY attribute {item!r}")
            group_by.append(item)

    # Partition attributes must exist on every matchable stream type.
    equiv_attrs = [p.attr for p in predicates if isinstance(p, Equivalence)]
    for attr in list(group_by) + equiv_attrs:
        for variable, source in aliases.items():
            if schema.kind_of(source, attr) is None:
                raise UnknownAttribute(
                    f"partition attribute {attr} is missing from type {source}"
                )

    within_ms = parse_duration_ms(clauses["WITHIN"])
    slide_ms = parse_duration_ms(clauses["SLIDE"]) if "SLIDE" in clauses else within_ms
    if not (0 < slide_ms <= within_ms):
        raise QuerySyntaxError(
            f"need within >= slide > 0, got within={within_ms}ms slide={slide_ms}ms"
        )

    aggregates, return_attrs = _parse_return(clauses["RETURN"], view)
    partition = set(group_by) | set(equiv_attrs)
    for attr in return_attrs:
        if attr not in partition:
            raise QuerySyntaxError(
                f"RETURN item {attr} is not a GROUP-BY or equivalence attribute"
            )
    if not aggregates:
        raise QuerySyntaxError("RETURN has no aggregate")

    return Query(
        pattern=pattern,
        template=template,
        aliases=aliases,
        semantics=semantics,
        predicates=tuple(predicates),
        group_by=tuple(group_by),
        within_ms=within_ms,
        slide_ms=slide_ms,
        aggregates=tuple(aggregates),
    )


def aggregate_names(query: Query) -> tuple:
    """The RETURN-clause spelling of each aggregate, in RETURN order."""
    return tuple(str(spec) for spec in query.aggregates)


def load_query(path, schema: Schema) -> Query:
    with open(path, encoding="utf-8-sig") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise InputError(f"query {path}: not UTF-8 text ({exc.reason})") from None
    return parse_query(text, schema)


# --------------------------------------------------------------------------
# Planning

def classify_and_plan(query: Query) -> frozenset:
    """Choose the coarsest exact aggregation granularity: the variables
    whose events are kept individually. An empty set is type granularity.

    The rule is the same under all three semantics. Whole variables fold
    into per-variable cells - unless an adjacency predicate forces
    individual events of the predecessor variable to be kept, because each
    future successor must be checked against each of them. The semantics
    change only which of those cells and events an event may read.
    """
    return frozenset(prev for prev, _ in query.adjacency)


class RoleProbe:
    """The pattern variables an event can play, in name order: those that
    read its type and whose local predicates it passes. An absent
    attribute fails a local predicate.

    The local filter is compiled once per query. Each stream type maps
    to its variables' names, when none of them has a local predicate, or
    else to a generated function of the event's attributes (see
    ``_compile_filter``), so a call is one lookup by type."""

    __slots__ = ("_by_type",)

    def __init__(self, query: Query):
        by_type: dict = {}
        for variable, source in query.aliases.items():
            by_type.setdefault(source, []).append(variable)
        checks: dict = {}
        for p in query.local_predicates:
            checks.setdefault(p.variable, []).append(p)
        self._by_type = {}
        for source, variables in by_type.items():
            roles = tuple(sorted(variables))
            if any(v in checks for v in roles):
                self._by_type[source] = _compile_filter(roles, checks)
            else:
                self._by_type[source] = roles

    def __call__(self, event: Event) -> tuple:
        roles = self._by_type.get(event.etype, ())
        return roles if roles.__class__ is tuple else roles(event.attrs)


def _compile_filter(roles, checks):
    """The roles among ``roles`` that an event with ``attrs`` passes, as a
    generated function of ``attrs``.

    Each variable's predicates are tested in query order, and each stops
    at the first that fails, exactly as a loop over them would: a test is
    ``value is not None and op(value, constant)``. Each attribute is read
    once with ``attrs.get``. Attribute and variable names enter the source
    only through ``repr()``; the operators and constants are bound by
    name, since a constant such as ``inf`` has no literal."""
    namespace = {op.__name__: op for op in _OPERATORS.values()}
    values: dict = {}  # attribute -> local holding its value
    constants: dict = {}
    body, parts = [], []
    for v in roles:
        tests = []
        for p in checks.get(v, ()):
            if p.attr not in values:
                values[p.attr] = f"a{len(values)}"
                body.append(f"    {values[p.attr]} = attrs.get({p.attr!r})")
            a = values[p.attr]
            constant = f"k{len(constants)}"
            constants[constant] = p.constant
            tests.append(f"{a} is not None and {p.op.apply.__name__}({a}, {constant})")
        role = f"({v!r},)"
        parts.append(f"({role} if {' and '.join(tests)} else ())" if tests else role)
    source = "\n".join(
        ["def roles_of(attrs):", *body, f"    return {' + '.join(parts)}", ""]
    )
    namespace.update(constants)
    exec(compile(source, "<trendagg filter>", "exec"), namespace)
    return namespace["roles_of"]
