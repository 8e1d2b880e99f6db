"""Granularity selection: which incremental state does a query need?"""

import pytest

from trendagg import QuerySyntaxError, Schema, classify_and_plan, parse_query

SCHEMA = Schema({"A": {"v": "int"}, "B": {"v": "int"}, "C": {"v": "int"}})


def plan_for(semantics, where=None, pattern="(SEQ(A+, B))+"):
    text = f"RETURN COUNT(*) PATTERN {pattern} SEMANTICS {semantics}"
    if where:
        text += f" WHERE {where}"
    text += " WITHIN 1 s"
    return classify_and_plan(parse_query(text, SCHEMA))


def test_next_and_cont_follow_the_any_rule():
    # The semantics change which cells and events an event may read, not
    # which ones are kept.
    for semantics in ("next", "cont"):
        for where in (None, "A.v > 1", "[v]", "A.v < B.v", "A.v < NEXT(A).v"):
            assert plan_for(semantics, where) == plan_for("any", where)
    assert plan_for("next") == frozenset()
    assert plan_for("cont", "A.v < NEXT(A).v") == frozenset({"A"})


def test_any_without_adjacency_is_type_grained():
    for where in (None, "A.v > 1", "[v]", "A.v > 1 AND [v]"):
        assert plan_for("any", where) == frozenset()


def test_any_with_adjacency_keeps_predecessor_events():
    assert plan_for("any", "B.v < A.v") == frozenset({"B"})  # the B->A edge
    assert plan_for("any", "A.v <= B.v") == frozenset({"A"})  # the A->B edge
    assert plan_for("any", "A.v < NEXT(A).v") == frozenset({"A"})  # self edge A->A
    assert plan_for("any", "A.v <= B.v AND B.v < A.v") == frozenset({"A", "B"})


def test_adjacency_on_impossible_edge_is_an_error():
    # In SEQ(A, B, C) a C-event never directly follows an A-event, so a
    # predicate on that pair could gate no edge: it is refused, not dropped.
    message = "^A never directly precedes C in the pattern$"
    with pytest.raises(QuerySyntaxError, match=message):
        plan_for("any", "A.v < C.v", pattern="SEQ(A, B, C)")


def test_plan_ignores_predicate_order():
    a = plan_for("any", "A.v <= B.v AND B.v < A.v")
    b = plan_for("any", "B.v < A.v AND A.v <= B.v")
    assert a == b
