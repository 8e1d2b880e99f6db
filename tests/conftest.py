import pytest
from hypothesis import strategies as st

from trendagg import Event, Schema, WindowManager, parse_query
from trendagg.kernels import compile_query

# A/B/C event types, one int attribute each. The showcase stream below is
# the worked example every engine is traced against: with pattern
# (SEQ(A+, B))+ it finishes 43 trends under skip-till-any-match, 8 under
# skip-till-next-match and 2 under contiguous; with the adjacency predicate
# B.v < A.v it finishes 33 (mixed granularity).
ABC_SCHEMA = Schema({"A": {"v": "int"}, "B": {"v": "int"}, "C": {"v": "int"}})

SHOWCASE = [
    Event(1000, "A", {"v": 5}),
    Event(2000, "B", {"v": 3}),
    Event(3000, "A", {"v": 5}),
    Event(4000, "A", {"v": 5}),
    Event(5000, "C", {"v": 0}),
    Event(6000, "B", {"v": 9}),
    Event(7000, "A", {"v": 5}),
    Event(8000, "B", {"v": 7}),
]


@pytest.fixture
def abc_schema():
    return ABC_SCHEMA


@pytest.fixture
def showcase_stream():
    return list(SHOWCASE)


def make_query(
    pattern="(SEQ(A+, B))+",
    semantics="any",
    where=None,
    group_by=None,
    returns="COUNT(*)",
    within="100 s",
    slide=None,
    schema=ABC_SCHEMA,
):
    text = f"RETURN {returns} PATTERN {pattern} SEMANTICS {semantics}"
    if where:
        text += f" WHERE {where}"
    if group_by:
        text += f" GROUP-BY {group_by}"
    text += f" WITHIN {within}"
    if slide:
        text += f" SLIDE {slide}"
    return parse_query(text, schema)


def row_tuples(rows):
    """(wid, key, values) of each row; ``ResultRow`` equality skips values."""
    return [(r.wid, r.key, r.values) for r in rows]


def fine_manager(query, emit_empty=False):
    """A ``WindowManager`` on the finest plan, in which every variable is
    event-grained and each event is kept individually. It is exact like
    the coarse plan and polynomial, so it is a second reference where the
    enumerating oracle cannot follow."""
    manager = WindowManager(query, emit_empty=emit_empty)
    manager.compiled = compile_query(query, frozenset(query.template.types))
    return manager


@pytest.fixture
def query_factory():
    return make_query


@st.composite
def stream_strategy(draw, max_events=10, types="ABC", ties=True, values=(0, 5)):
    """Time-ordered random A/B/C streams; equal timestamps when ``ties``."""
    n = draw(st.integers(min_value=0, max_value=max_events))
    events, t = [], 0
    for _ in range(n):
        t += draw(st.integers(min_value=0 if ties else 1, max_value=2)) * 1000
        events.append(
            Event(
                t + 1000,
                draw(st.sampled_from(types)),
                {"v": draw(st.integers(*values))},
            )
        )
    return events
