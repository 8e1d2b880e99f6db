"""Skip-till-next-match and contiguous semantics on the one kernel."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trendagg import Engine, Event
from trendagg.oracle import aggregate_trends, enumerate_trends

from conftest import SHOWCASE, make_query, stream_strategy


def _trace(engine, events):
    counts, finals = [], []
    for e in events:
        cells = engine.step([e])
        counts.append(cells[0][1][0] if cells else None)
        finals.append(engine.kernel.snapshot().final)
    return counts, finals


class TestShowcaseTraces:
    """Worked example under the two single-chain semantics.

    Skip-till-next-match ignores the unmatched c5, and each event moves
    every chain it can extend onto itself. Contiguous lets an event read
    only the timestamp just before it: c5 severs every open chain (the
    committed final count survives), so b6 extends nothing and a7 starts
    afresh.
    """

    def test_next_trace(self):
        engine = Engine(make_query(semantics="next"))
        assert engine.compiled.event_grained == frozenset()
        counts, finals = _trace(engine, SHOWCASE)
        assert counts == [1, 1, 2, 3, None, 3, 4, 4]
        assert finals == [0, 1, 1, 1, 1, 4, 4, 8]

    def test_cont_trace(self):
        engine = Engine(make_query(semantics="cont"))
        counts, finals = _trace(engine, SHOWCASE)
        # b6 reads only c5's timestamp, which holds no trend; B is not the
        # start variable, so b6 ends none. a7 starts a fresh chain.
        assert counts == [1, 1, 2, 3, None, 0, 1, 1]
        assert finals == [0, 1, 1, 1, 1, 1, 1, 2]

    def test_oracle_agrees(self):
        assert len(list(enumerate_trends(SHOWCASE, make_query(semantics="next")))) == 8
        assert len(list(enumerate_trends(SHOWCASE, make_query(semantics="cont")))) == 2


def _events(spec):
    return [Event(seconds * 1000, etype, {"v": v}) for seconds, etype, v in spec]


# (pattern, semantics, where, events as (seconds, type, v), oracle's count):
# streams on which an engine that keeps a single open chain, or that cannot
# take a read predecessor back out of a variable's cells, miscounts.
_FORMER_DIVERGENCES = {
    "next-a1-a2-b3": (
        "SEQ(A, B)", "next", None, [(1, "A", 0), (2, "A", 0), (3, "B", 0)], 2,
    ),
    "cont-b1-a2-a3x3": (
        "A+", "cont", None,
        [(1, "B", 0), (2, "A", 0), (3, "A", 0), (3, "A", 0), (3, "A", 0)], 7,
    ),
    # b3 reads a1's chain but not a3's, which shares b3's timestamp; the
    # a3 chain must survive for b5.
    "next-a1-a3-b3-b5": (
        "SEQ(A, B)", "next", None,
        [(1, "A", 0), (3, "A", 0), (3, "B", 0), (5, "B", 0)], 2,
    ),
    "cont-a1-a2x2-a3": (
        "A+", "cont", None, [(1, "A", 0), (2, "A", 0), (2, "A", 0), (3, "A", 0)], 8,
    ),
    "next-decreasing-v": (
        "A+", "next", "A.v < NEXT(A).v",
        [(1, "A", 3), (2, "A", 1), (3, "A", 2), (4, "A", 4)], 8,
    ),
}


class TestFormerDivergences:
    @pytest.mark.parametrize("case", sorted(_FORMER_DIVERGENCES))
    def test_count_matches_oracle(self, case):
        pattern, semantics, where, spec, count = _FORMER_DIVERGENCES[case]
        query = make_query(pattern=pattern, semantics=semantics, where=where)
        events = _events(spec)
        assert len(list(enumerate_trends(events, query))) == count
        engine = Engine(query).run(events)
        assert engine.kernel.snapshot().final == count


class TestEdgeBehaviour:
    def test_tied_starts_each_count(self):
        events = [Event(1000, "A", {"v": 1}), Event(1000, "A", {"v": 2})]
        query = make_query(pattern="A+", semantics="next")
        engine = Engine(query).run(events)
        assert engine.kernel.snapshot().final == 2
        assert len(list(enumerate_trends(events, query))) == 2

    def test_state_stays_constant(self):
        # Without adjacency predicates the state is type-grained: its peak
        # does not grow with the stream.
        for semantics in ("next", "cont"):
            peaks = []
            for n in (400, 4000):
                events = [
                    Event(1000 * (i + 1), SHOWCASE[i % 8].etype, SHOWCASE[i % 8].attrs)
                    for i in range(n)
                ]
                engine = Engine(make_query(semantics=semantics)).run(events)
                peaks.append(engine.peak_entries)
            assert peaks[0] == peaks[1], semantics

    def test_cont_reset_releases_entry(self):
        query = make_query(semantics="cont")
        engine = Engine(query)
        idle = engine.kernel.snapshot().entries
        engine.step([Event(1000, "A", {"v": 1})])
        assert engine.kernel.snapshot().entries > idle
        engine.step([Event(2000, "C", {"v": 0})])  # the gap severs the chain
        assert engine.kernel.snapshot().entries == idle
        assert engine.step([Event(3000, "B", {"v": 0})])[0][1][0] == 0

    def test_aliases_fork_where_an_event_plays_two_variables(self):
        # Under next, a2 extends a1's chain as X and as Y, so the chain
        # forks; a3 then extends (a1, a2 as X) and (a2) alike. The trends
        # are (a1, a2 as Y), (a1, a2, a3 as Y) and (a2, a3 as Y); the
        # skip-till-any-match trend (a1, a3 as Y) skips a2, which could
        # extend it.
        events = [Event(1000 * t, "A", {"v": t}) for t in (1, 2, 3)]
        for semantics, count in (("next", 3), ("any", 4)):
            query = make_query(pattern="SEQ(A X+, A Y)", semantics=semantics)
            assert Engine(query).run(events).results() == {"COUNT(*)": count}
            assert len(list(enumerate_trends(events, query))) == count


def _assert_matches_oracle(query, events):
    expected = aggregate_trends(enumerate_trends(events, query), query.aggregates)
    assert Engine(query).run(events).results() == expected, events


# Every pattern the single-chain semantics are tested on, with and
# without adjacency predicates.
_CASES = [
    ("A+", None),
    ("A+", "A.v < NEXT(A).v"),
    ("SEQ(A, B)", None),
    ("SEQ(A, B)", "A.v <= B.v"),
    ("SEQ(A+, B)", None),
    ("SEQ(A+, B)", "A.v <= B.v"),
    ("(SEQ(A+, B))+", None),
    ("(SEQ(A+, B))+", "A.v <= B.v"),
    ("(SEQ(A+, B))+", "B.v < A.v"),
    ("(SEQ(A+, B+))+", None),
    ("SEQ(A+, B, C+)", None),
    ("SEQ(A+, B, C+)", "A.v < NEXT(A).v"),
]


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_random_next_matches_oracle(data):
    pattern, where = data.draw(st.sampled_from(_CASES))
    if data.draw(st.booleans()):
        where = f"{where} AND A.v > 0" if where else "A.v > 0"
    query = make_query(
        pattern=pattern, semantics="next", where=where,
        returns="COUNT(*), SUM(A.v), MIN(A.v)",
    )
    _assert_matches_oracle(query, data.draw(stream_strategy()))


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_random_cont_matches_oracle(data):
    pattern, where = data.draw(st.sampled_from(_CASES))
    if data.draw(st.booleans()):
        where = f"{where} AND A.v > 0" if where else "A.v > 0"
    query = make_query(
        pattern=pattern, semantics="cont", where=where,
        returns="COUNT(*), SUM(A.v), MIN(A.v)",
    )
    _assert_matches_oracle(query, data.draw(stream_strategy()))


# Patterns that bind stream type A to two variables, each with the
# adjacency predicates that bind a pair in it.
_ALIASED = {
    "SEQ(A X+, A Y)": (None, "X.v < Y.v", "X.v < NEXT(X).v"),
    "SEQ(A X, A Y+, B)": (None, "X.v < Y.v", "Y.v >= NEXT(Y).v"),
}


def _draw_aliased(data, semantics):
    pattern = data.draw(st.sampled_from(sorted(_ALIASED)))
    where = data.draw(st.sampled_from(_ALIASED[pattern]))
    query = make_query(
        pattern=pattern, semantics=semantics, where=where,
        returns="COUNT(*), SUM(X.v), MAX(Y.v)",
    )
    return query, data.draw(stream_strategy(types="AAB"))


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_aliased_cont_matches_oracle(data):
    _assert_matches_oracle(*_draw_aliased(data, "cont"))


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_aliased_next_matches_oracle(data):
    _assert_matches_oracle(*_draw_aliased(data, "next"))
