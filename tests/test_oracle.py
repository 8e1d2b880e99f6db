"""The enumerating oracle, cross-validated against a from-scratch
subset enumerator on small streams."""

import itertools
import random
import tracemalloc

import pytest

from trendagg import (
    Event,
    ExplosionGuard,
    Schema,
    TRANSPORT_SCHEMA,
    aggregate_trends,
    enumerate_trends,
    generate_transport_stream,
    parse_query,
)
from query_reference import check_adjacent, matchable_variables

SCHEMA = Schema({"A": {"v": "int"}, "B": {"v": "int"}, "C": {"v": "int"}})


def q(pattern, semantics="any", where=None):
    text = f"RETURN COUNT(*) PATTERN {pattern} SEMANTICS {semantics}"
    if where:
        text += f" WHERE {where}"
    return parse_query(text + " WITHIN 1 h", SCHEMA)


def ev(time_s, etype, v=0):
    return Event(time_s * 1000, etype, {"v": v})


def key(trend):
    return tuple((o.index, o.variable) for o in trend)


def keys(trends):
    return set(map(key, trends))


def test_any_small_example():
    # 3 starts followed by one end: any non-empty start subset finishes
    events = [ev(1, "A"), ev(2, "A"), ev(3, "A"), ev(4, "B")]
    trends = list(enumerate_trends(events, q("SEQ(A+, B)")))
    assert len(trends) == 7
    assert keys(trends) == {
        ((0, "A"), (3, "B")),
        ((1, "A"), (3, "B")),
        ((2, "A"), (3, "B")),
        ((0, "A"), (1, "A"), (3, "B")),
        ((0, "A"), (2, "A"), (3, "B")),
        ((1, "A"), (2, "A"), (3, "B")),
        ((0, "A"), (1, "A"), (2, "A"), (3, "B")),
    }


def test_any_respects_local_predicates():
    events = [ev(1, "A", 5), ev(2, "A", 0), ev(3, "B", 1)]
    trends = enumerate_trends(events, q("SEQ(A+, B)", where="A.v > 0"))
    assert keys(trends) == {((0, "A"), (2, "B"))}


def test_equal_timestamps_are_never_adjacent():
    events = [Event(1000, "A"), Event(1000, "A")]
    trends = enumerate_trends(events, q("A+"))
    assert keys(trends) == {((0, "A"),), ((1, "A"),)}


def test_next_closed_form_on_runs_of_starts():
    # Under skip-till-next-match, k start events with distinct times give
    # one chain per start; chain i finishes k-i+1 times: total k(k+1)/2.
    for k in (1, 2, 3, 5, 8):
        events = [ev(i + 1, "A") for i in range(k)]
        assert len(list(enumerate_trends(events, q("A+", "next")))) == k * (k + 1) // 2


def test_next_consumes_extending_events():
    # a1 b2 b3 under (SEQ(A+, B))+: b2 can extend a1's chain, so the chain
    # must take it. b3 then cannot follow a B, and (a1, b3) - a perfectly
    # good skip-till-any trend - is never produced under skip-till-next.
    events = [ev(1, "A"), ev(2, "B"), ev(3, "B")]
    assert keys(enumerate_trends(events, q("(SEQ(A+, B))+", "next"))) == {
        ((0, "A"), (1, "B")),
    }
    assert ((0, "A"), (2, "B")) in keys(enumerate_trends(events, q("(SEQ(A+, B))+")))
    # a1 a2 b3 under SEQ(A, B): a2 cannot extend a1's chain (no A->A edge),
    # so it is skipped as irrelevant there while opening its own chain.
    events = [ev(1, "A"), ev(2, "A"), ev(3, "B")]
    trends = enumerate_trends(events, q("SEQ(A, B)", "next"))
    assert keys(trends) == {((0, "A"), (2, "B")), ((1, "A"), (2, "B"))}


def test_next_forks_once_per_variable_an_event_plays():
    # a2 can extend a1's chain as X and as Y: the chain takes a2 and forks,
    # so (a1, a3 as Y), which skips a2, is no trend. a3 then extends each
    # chain whose tip plays X, as X and as Y.
    events = [ev(1, "A"), ev(2, "A"), ev(3, "A")]
    assert list(map(key, enumerate_trends(events, q("SEQ(A X+, A Y)", "next")))) == [
        ((0, "X"), (1, "X"), (2, "Y")),
        ((0, "X"), (1, "Y")),
        ((1, "X"), (2, "Y")),
    ]
    # With X.v < Y.v, a2 (v 1) can extend a1 (v 2) as X only; the chain
    # must still take it, and a3 (v 3) extends it as Y.
    events = [ev(1, "A", 2), ev(2, "A", 1), ev(3, "A", 3)]
    query = q("SEQ(A X+, A Y)", "next", "X.v < Y.v")
    assert keys(enumerate_trends(events, query)) == {
        ((0, "X"), (1, "X"), (2, "Y")),
        ((1, "X"), (2, "Y")),
    }


def test_cont_gap_free_filter():
    # A foreign event strictly inside the span severs the trend even
    # though it matches nothing.
    events = [ev(1, "A"), ev(2, "C"), ev(3, "A")]
    trends = enumerate_trends(events, q("A+", "cont"))
    assert keys(trends) == {((0, "A"),), ((2, "A"),)}
    # So does a locally filtered-out event of a pattern type.
    events = [ev(1, "A", 1), ev(2, "A", 0), ev(3, "A", 1)]
    trends = enumerate_trends(events, q("A+", "cont", where="A.v > 0"))
    assert keys(trends) == {((0, "A"),), ((2, "A"),)}
    # Without the gap the full run appears.
    events = [ev(1, "A"), ev(2, "A")]
    trends = enumerate_trends(events, q("A+", "cont"))
    assert keys(trends) == {((0, "A"),), ((1, "A"),), ((0, "A"), (1, "A"))}


def test_cont_checks_adjacency_only_between_contiguous_events():
    # a3 lacks v, but the C event between it and a1 means the pair is never
    # adjacent under cont, so its predicate is not evaluated, as in the
    # engine.
    events = [ev(1, "A", 1), ev(2, "C"), Event(3000, "A", {})]
    query = q("A+", "cont", where="A.v < NEXT(A).v")
    assert keys(enumerate_trends(events, query)) == {((0, "A"),), ((2, "A"),)}


def test_semantics_containment():
    rng = random.Random(7)
    patterns = ["A+", "SEQ(A+, B)", "(SEQ(A+, B))+", "SEQ(A, B)"]
    for _ in range(40):
        events = [
            ev(i + 1, rng.choice("AABC"), rng.randint(0, 3))
            for i in range(rng.randint(2, 8))
        ]
        pattern = rng.choice(patterns)
        any_keys = keys(enumerate_trends(events, q(pattern)))
        assert keys(enumerate_trends(events, q(pattern, "next"))) <= any_keys
        assert keys(enumerate_trends(events, q(pattern, "cont"))) <= any_keys


def _literal_any(events, query):
    """From-scratch skip-till-any-match enumeration: try every combination
    of (event, variable) picks in stream order and keep the valid ones."""
    per_event = [
        [(i, v) for v in matchable_variables(query, e)]
        for i, e in enumerate(events)
    ]
    found = set()
    for size in range(1, len(events) + 1):
        for combo in itertools.combinations(range(len(events)), size):
            pools = [per_event[i] for i in combo]
            if any(not pool for pool in pools):
                continue
            for assignment in itertools.product(*pools):
                if assignment[0][1] != query.template.start_type:
                    continue
                if assignment[-1][1] != query.template.end_type:
                    continue
                ok = True
                for (i, pv), (j, nv) in zip(assignment, assignment[1:]):
                    if not check_adjacent(
                        query.template,
                        query.predicates,
                        events[i],
                        events[j],
                        prev_variable=pv,
                        next_variable=nv,
                    ):
                        ok = False
                        break
                if ok:
                    found.add(assignment)
    return found


def _gap_free(events, trends):
    """The trends that hold every event lying strictly inside their time
    span: the literal definition of contiguity."""
    return {
        trend
        for trend in trends
        if all(
            i in {j for j, _ in trend}
            for i, e in enumerate(events)
            if events[trend[0][0]].time < e.time < events[trend[-1][0]].time
        )
    }


def _literal_cases():
    """Small random streams with likely timestamp ties, each with a pattern
    and a WHERE clause."""
    rng = random.Random(99)
    patterns = [
        ("A+", None),
        ("SEQ(A+, B)", None),
        ("(SEQ(A+, B))+", None),
        ("SEQ(A, B+, C)", None),
        ("SEQ(A+, B)", "A.v <= B.v"),
        ("(SEQ(A+, B))+", "B.v < A.v"),
        ("A+", "A.v < NEXT(A).v"),
        ("SEQ(A X+, A Y)", None),  # two variables reading one stream type
    ]
    for case in range(60):
        pattern, where = patterns[case % len(patterns)]
        n = rng.randint(2, 7)
        times = sorted(rng.randint(1, 6) for _ in range(n))  # ties likely
        events = [
            ev(times[i], rng.choice("AABBC"), rng.randint(0, 4))
            for i in range(n)
        ]
        yield events, pattern, where


def _literal_next(events, query):
    """From-scratch skip-till-next-match enumeration: the
    skip-till-any-match trends in which no event strictly between two
    neighbours can extend the earlier one, as any variable."""

    def extends(i, variable, m):
        return any(
            check_adjacent(
                query.template,
                query.predicates,
                events[i],
                events[m],
                prev_variable=variable,
                next_variable=nv,
            )
            for nv in matchable_variables(query, events[m])
        )

    return {
        trend
        for trend in _literal_any(events, query)
        if not any(
            extends(i, pv, m)
            for (i, pv), (j, _) in zip(trend, trend[1:])
            for m in range(i + 1, j)
        )
    }


def _aliased_cases():
    """Small random streams, mostly of A events, under patterns that bind
    type A to two variables, each with a WHERE clause that binds a pair."""
    rng = random.Random(26)
    patterns = [
        ("SEQ(A X+, A Y)", None),
        ("SEQ(A X+, A Y)", "X.v < NEXT(X).v"),
        ("SEQ(A X+, A Y)", "X.v <= Y.v"),
        ("SEQ(A X+, A Y+)", "X.v <= Y.v"),
        ("SEQ(A X, A Y+, B)", "Y.v >= NEXT(Y).v"),
        ("(SEQ(A X+, A Y))+", "Y.v < X.v"),
        ("SEQ(A X+, A Y)", "X.v > 0 AND Y.v < 4"),
        ("SEQ(B, A X+, A Y+)", "B.v < X.v"),
    ]
    for case in range(400):
        pattern, where = patterns[case % len(patterns)]
        n = rng.randint(2, 7)
        times = sorted(rng.randint(1, 6) for _ in range(n))  # ties likely
        events = [
            ev(times[i], rng.choice("AAAB"), rng.randint(0, 4))
            for i in range(n)
        ]
        yield events, pattern, where


def test_any_matches_literal_subset_enumeration():
    for events, pattern, where in _literal_cases():
        query = q(pattern, where=where)
        assert keys(enumerate_trends(events, query)) == _literal_any(events, query)


def test_next_matches_literal_first_extension_rule():
    cases = itertools.chain(_literal_cases(), _aliased_cases())
    for events, pattern, where in cases:
        query = q(pattern, "next", where)
        assert keys(enumerate_trends(events, query)) == _literal_next(events, query), (
            pattern, where, events,
        )


def test_trends_come_in_ascending_order_and_cont_is_gap_free():
    # ``aggregate_trends`` adds floats in the order trends come, so every
    # enumerator must yield them in one canonical order, without a sort.
    for events, pattern, where in _literal_cases():
        for semantics in ("any", "next", "cont"):
            trends = enumerate_trends(events, q(pattern, semantics, where))
            found = list(map(key, trends))
            assert all(a < b for a, b in zip(found, found[1:])), (semantics, events)
        query = q(pattern, "cont", where)
        want = _gap_free(events, _literal_any(events, query))
        assert keys(enumerate_trends(events, query)) == want, events


def test_explosion_guard():
    events = [ev(i + 1, "A") for i in range(12)]
    with pytest.raises(ExplosionGuard):
        list(enumerate_trends(events, q("A+"), cap=100))
    assert len(list(enumerate_trends(events, q("A+"), cap=10_000))) == 2**12 - 1


def test_cont_cap_counts_contiguous_trends():
    # The cap counts the trends the semantics yields, not the
    # skip-till-any-match search behind them, which here is far larger.
    query = parse_query(
        "RETURN COUNT(*) PATTERN Trip T+ SEMANTICS cont WITHIN 600 s",
        TRANSPORT_SCHEMA,
    )
    events = generate_transport_stream(3, 3, 300, 5)
    assert len(list(enumerate_trends(events, query, cap=1_000))) == 465
    with pytest.raises(ExplosionGuard):
        list(enumerate_trends(events, query, cap=464))


def test_folding_holds_no_trends():
    # 2^16 - 1 trends, folded as they are found. Measured with tracemalloc
    # on CPython 3.11: an 8.4 KiB peak, against 47 MiB when the trends
    # were first collected into a set.
    events = [ev(i + 1, "A", i) for i in range(16)]
    query = parse_query(
        "RETURN COUNT(*), SUM(A.v) PATTERN A+ SEMANTICS any WITHIN 1 h", SCHEMA
    )
    tracemalloc.start()
    try:
        values = aggregate_trends(enumerate_trends(events, query), query.aggregates)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert values == {"COUNT(*)": 2**16 - 1, "SUM(A.v)": 2**15 * sum(range(16))}
    assert peak < 256 * 1024, peak


def test_aggregate_trends_hand_computed():
    events = [ev(1, "A", 4), ev(2, "A", 1), ev(3, "B", 9)]
    query = parse_query(
        "RETURN COUNT(*), COUNT(A), SUM(A.v), MIN(A.v), MAX(A.v), AVG(A.v), "
        "COUNT(B), AVG(B.v) "
        "PATTERN SEQ(A+, B) SEMANTICS any WITHIN 1 h",
        SCHEMA,
    )
    trends = enumerate_trends(events, query)
    # trends: (a1,b), (a2,b), (a1,a2,b)
    out = aggregate_trends(trends, query.aggregates)
    assert out == {
        "COUNT(*)": 3,
        "COUNT(A)": 4,
        "SUM(A.v)": 4 + 1 + (4 + 1),
        "MIN(A.v)": 1,
        "MAX(A.v)": 4,
        "AVG(A.v)": 10 / 4,
        "COUNT(B)": 3,
        "AVG(B.v)": 9.0,
    }
    empty = aggregate_trends(set(), query.aggregates)
    assert empty["COUNT(*)"] == 0 and empty["MIN(A.v)"] is None
    assert empty["AVG(A.v)"] is None and empty["SUM(A.v)"] == 0
