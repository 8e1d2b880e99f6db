"""Granularity selection: which incremental state does a query need?"""

import pytest

from trendagg import Granularity, Schema, classify_and_plan, parse_query

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
    assert plan_for("next").mode is Granularity.TYPE
    plan = plan_for("cont", "A.v < NEXT(A).v")
    assert plan.mode is Granularity.MIXED
    assert plan.event_grained == frozenset({"A"})


def test_any_without_adjacency_is_type_grained():
    for where in (None, "A.v > 1", "[v]", "A.v > 1 AND [v]"):
        plan = plan_for("any", where)
        assert plan.mode is Granularity.TYPE
        assert plan.event_grained == frozenset()
        assert plan.type_grained == frozenset({"A", "B"})


def test_any_with_adjacency_keeps_predecessor_events():
    plan = plan_for("any", "B.v < A.v")  # constrains the B->A edge
    assert plan.mode is Granularity.MIXED
    assert plan.event_grained == frozenset({"B"})
    assert plan.type_grained == frozenset({"A"})

    plan = plan_for("any", "A.v <= B.v")  # constrains the A->B edge
    assert plan.event_grained == frozenset({"A"})

    plan = plan_for("any", "A.v < NEXT(A).v")  # self edge A->A
    assert plan.event_grained == frozenset({"A"})

    plan = plan_for("any", "A.v <= B.v AND B.v < A.v")
    assert plan.event_grained == frozenset({"A", "B"})


def test_adjacency_on_impossible_edge_constrains_nothing():
    # In SEQ(A, B, C) a C-event never directly follows an A-event, so a
    # predicate on that pair gates no edge and no events need keeping.
    plan = plan_for("any", "A.v < C.v", pattern="SEQ(A, B, C)")
    assert plan.mode is Granularity.MIXED
    assert plan.event_grained == frozenset()


def test_plan_ignores_predicate_order():
    a = plan_for("any", "A.v <= B.v AND B.v < A.v")
    b = plan_for("any", "B.v < A.v AND A.v <= B.v")
    assert a == b
