import pytest
from hypothesis import given
from hypothesis import strategies as st

from trendagg import (
    Adjacent,
    AggKind,
    AggSpec,
    Equivalence,
    Event,
    Local,
    Op,
    QuerySyntaxError,
    Schema,
    Semantics,
    UnknownAttribute,
    UnknownType,
    parse_query,
)
from trendagg.query import (
    RoleProbe,
    check_adjacent,
    matchable_variables,
    parse_duration_ms,
    passes_local,
)

SCHEMA = Schema(
    {
        "A": {"v": "int", "name": "str"},
        "B": {"v": "int"},
        "M": {"rate": "float", "activity": "str", "patient": "int"},
    }
)


def test_minimal_query():
    q = parse_query(
        "RETURN COUNT(*) PATTERN A+ SEMANTICS any WITHIN 5 min", SCHEMA
    )
    assert q.semantics is Semantics.ANY
    assert q.within_ms == 300_000 and q.slide_ms == 300_000  # tumbling
    assert q.aggregates == (AggSpec(AggKind.COUNT_STAR),)
    assert q.partition_attrs == ()


def test_clauses_on_one_line_and_multiline_agree():
    one = parse_query(
        "RETURN COUNT(*) PATTERN A+ SEMANTICS cont "
        "WHERE A.v > 3 AND [name] GROUP-BY name WITHIN 10 s SLIDE 5 s",
        SCHEMA,
    )
    many = parse_query(
        """
        RETURN COUNT(*)
        PATTERN A+
        SEMANTICS cont
        WHERE A.v > 3 AND [name]
        GROUP-BY name
        WITHIN 10 s
        SLIDE 5 s
        """,
        SCHEMA,
    )
    assert one == many


def test_semantics_long_names():
    for text, want in [
        ("skip-till-any-match", Semantics.ANY),
        ("skip-till-next-match", Semantics.NEXT),
        ("contiguous", Semantics.CONT),
        ("ANY", Semantics.ANY),
    ]:
        q = parse_query(
            f"RETURN COUNT(*) PATTERN A+ SEMANTICS {text} WITHIN 1 s", SCHEMA
        )
        assert q.semantics is want


def test_durations():
    assert parse_duration_ms("250") == 250
    assert parse_duration_ms("250 ms") == 250
    assert parse_duration_ms("3 s") == 3000
    assert parse_duration_ms("2 min") == 120_000
    assert parse_duration_ms("1 hour") == 3_600_000
    with pytest.raises(QuerySyntaxError):
        parse_duration_ms("fast")


def test_predicate_forms():
    q = parse_query(
        "RETURN COUNT(*) PATTERN Measurement M+ SEMANTICS cont "
        "WHERE M.activity = 'passive' AND M.rate < NEXT(M).rate AND [patient] "
        "WITHIN 1 h",
        Schema({"Measurement": {"rate": "float", "activity": "str", "patient": "int"}}),
    )
    assert q.predicates == (
        Local("M", "activity", Op.EQ, "passive"),
        Adjacent("M", "rate", Op.LT, "M", "rate"),
        Equivalence("patient"),
    )
    adjacent = q.adjacent_predicates[0]
    assert adjacent.prev_variable == adjacent.next_variable == "M"
    assert q.partition_attrs == ("patient",)


def test_two_variable_adjacency_predicate():
    q = parse_query(
        "RETURN COUNT(*) PATTERN SEQ(A+, B) SEMANTICS any "
        "WHERE A.v <= B.v WITHIN 1 s",
        SCHEMA,
    )
    assert q.predicates == (Adjacent("A", "v", Op.LE, "B", "v"),)


def test_local_constant_coercion_and_checks():
    q = parse_query(
        "RETURN COUNT(*) PATTERN Measurement M+ SEMANTICS any "
        "WHERE M.rate >= 5 WITHIN 1 s",
        Schema({"Measurement": {"rate": "float"}}),
    )
    (p,) = q.predicates
    assert p.constant == 5.0 and isinstance(p.constant, float)
    with pytest.raises(QuerySyntaxError):
        parse_query(
            "RETURN COUNT(*) PATTERN A+ SEMANTICS any WHERE A.v = 'word' WITHIN 1 s",
            SCHEMA,
        )
    with pytest.raises(QuerySyntaxError):
        parse_query(
            "RETURN COUNT(*) PATTERN A+ SEMANTICS any WHERE A.name = 3 WITHIN 1 s",
            SCHEMA,
        )


def test_aggregate_parsing():
    q = parse_query(
        "RETURN COUNT(*), COUNT(A), MIN(A.v), MAX(A.v), SUM(A.v), AVG(A.v) "
        "PATTERN A+ SEMANTICS any WITHIN 1 s",
        SCHEMA,
    )
    assert [str(s) for s in q.aggregates] == [
        "COUNT(*)",
        "COUNT(A)",
        "MIN(A.v)",
        "MAX(A.v)",
        "SUM(A.v)",
        "AVG(A.v)",
    ]


def test_return_group_attrs():
    q = parse_query(
        "RETURN name, COUNT(*) PATTERN A+ SEMANTICS any "
        "GROUP-BY name WITHIN 1 s",
        SCHEMA,
    )
    assert q.partition_attrs == ("name",)
    assert [str(s) for s in q.aggregates] == ["COUNT(*)"]
    with pytest.raises(QuerySyntaxError):
        parse_query(
            "RETURN name, COUNT(*) PATTERN A+ SEMANTICS any WITHIN 1 s", SCHEMA
        )


def test_query_validation_errors():
    cases = [
        # missing clauses
        "PATTERN A+ SEMANTICS any WITHIN 1 s",
        "RETURN COUNT(*) SEMANTICS any WITHIN 1 s",
        "RETURN COUNT(*) PATTERN A+ WITHIN 1 s",
        "RETURN COUNT(*) PATTERN A+ SEMANTICS any",
        # duplicate clause
        "RETURN COUNT(*) RETURN COUNT(*) PATTERN A+ SEMANTICS any WITHIN 1 s",
        # duplicate GROUP-BY attribute
        "RETURN COUNT(*) PATTERN A+ SEMANTICS any GROUP-BY name, name WITHIN 1 s",
        # duplicate RETURN attribute
        "RETURN name, name, COUNT(*) PATTERN A+ SEMANTICS any GROUP-BY name WITHIN 1 s",
        # no aggregate
        "RETURN name PATTERN A+ SEMANTICS any GROUP-BY name WITHIN 1 s",
        # slide larger than window
        "RETURN COUNT(*) PATTERN A+ SEMANTICS any WITHIN 1 s SLIDE 2 s",
        # unknown semantics
        "RETURN COUNT(*) PATTERN A+ SEMANTICS sometimes WITHIN 1 s",
        # string attribute under numeric aggregate
        "RETURN MIN(A.name) PATTERN A+ SEMANTICS any WITHIN 1 s",
    ]
    for text in cases:
        with pytest.raises(QuerySyntaxError):
            parse_query(text, SCHEMA)


def test_unknown_names():
    with pytest.raises(UnknownType):
        parse_query("RETURN COUNT(*) PATTERN Z+ SEMANTICS any WITHIN 1 s", SCHEMA)
    with pytest.raises(UnknownType):
        parse_query(
            "RETURN COUNT(*) PATTERN A+ SEMANTICS any WHERE X.v > 1 WITHIN 1 s",
            SCHEMA,
        )
    with pytest.raises(UnknownAttribute):
        parse_query(
            "RETURN COUNT(*) PATTERN A+ SEMANTICS any WHERE A.volume > 1 WITHIN 1 s",
            SCHEMA,
        )
    with pytest.raises(UnknownAttribute):
        # partition attribute missing from one of the matchable types
        parse_query(
            "RETURN COUNT(*) PATTERN SEQ(A, B) SEMANTICS any GROUP-BY name WITHIN 1 s",
            SCHEMA,
        )


def test_passes_local_and_matchable():
    q = parse_query(
        "RETURN COUNT(*) PATTERN A+ SEMANTICS any WHERE A.v > 3 WITHIN 1 s",
        SCHEMA,
    )
    assert passes_local(q, Event(0, "A", {"v": 5}), "A")
    assert not passes_local(q, Event(0, "A", {"v": 3}), "A")
    assert not passes_local(q, Event(0, "A", {}), "A")  # absent attr fails
    assert matchable_variables(q, Event(0, "A", {"v": 5})) == ("A",)
    assert matchable_variables(q, Event(0, "A", {"v": 1})) == ()
    assert matchable_variables(q, Event(0, "B", {"v": 5})) == ()


def test_matchable_multi_role_aliases():
    q = parse_query(
        "RETURN COUNT(*) PATTERN SEQ(A X+, A Y) SEMANTICS any "
        "WHERE Y.v > 10 WITHIN 1 s",
        SCHEMA,
    )
    assert matchable_variables(q, Event(0, "A", {"v": 20})) == ("X", "Y")
    assert matchable_variables(q, Event(0, "A", {"v": 5})) == ("X",)


_PROBE_SCHEMA = Schema({t: {"v": "int", "name": "str"} for t in "ABC"})
_PROBE_PATTERNS = {
    "A+": ("A",),
    "SEQ(A X+, A Y)": ("X", "Y"),
    "SEQ(A X+, B, A Y+)": ("X", "B", "Y"),
    "(SEQ(A X+, B Y))+": ("X", "Y"),
}


@st.composite
def _local_predicate(draw, variables):
    variable = draw(st.sampled_from(variables))
    op = draw(st.sampled_from([op.value for op in Op]))
    if draw(st.booleans()):
        return f"{variable}.v {op} {draw(st.integers(0, 4))}"
    return f"{variable}.name {op} '{draw(st.sampled_from('abc'))}'"


@st.composite
def _probe_cases(draw):
    """A query with local predicates and an event, both drawn."""
    pattern = draw(st.sampled_from(sorted(_PROBE_PATTERNS)))
    locals_ = draw(st.lists(_local_predicate(_PROBE_PATTERNS[pattern]), max_size=5))
    text = f"RETURN COUNT(*) PATTERN {pattern} SEMANTICS any"
    if locals_:
        text += " WHERE " + " AND ".join(locals_)
    query = parse_query(text + " WITHIN 1 s", _PROBE_SCHEMA)
    attrs = draw(
        st.fixed_dictionaries(
            {},
            optional={
                "v": st.one_of(st.none(), st.integers(0, 4)),
                "name": st.one_of(st.none(), st.sampled_from("abc")),
            },
        )
    )
    return query, Event(0, draw(st.sampled_from("ABC")), attrs)


@given(_probe_cases())
def test_role_probe_agrees_with_matchable_variables(case):
    query, event = case
    assert RoleProbe(query)(event) == matchable_variables(query, event)


def test_check_adjacent():
    q = parse_query(
        "RETURN COUNT(*) PATTERN SEQ(A+, B) SEMANTICS any "
        "WHERE A.v <= B.v WITHIN 1 s",
        SCHEMA,
    )
    t = q.template
    a1 = Event(1000, "A", {"v": 3})
    a2 = Event(2000, "A", {"v": 9})
    b = Event(3000, "B", {"v": 5})
    assert check_adjacent(t, q.predicates, a1, a2)  # A->A edge, no predicate
    assert check_adjacent(t, q.predicates, a1, b)   # 3 <= 5
    assert not check_adjacent(t, q.predicates, a2, b)  # 9 <= 5 fails
    assert not check_adjacent(t, q.predicates, b, a1)  # B never precedes A
    assert not check_adjacent(t, q.predicates, a1, Event(1000, "A", {"v": 1}))
