"""Mixed-grained engine: adjacency predicates force per-event storage."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trendagg import Event, Granularity, build_engine
from trendagg.oracle import aggregate_trends, enumerate_trends

from conftest import SHOWCASE, make_query, stream_strategy


def _mixed_query(**kw):
    kw.setdefault("where", "B.v < A.v")
    return make_query(**kw)


class TestShowcaseTrace:
    """Worked example with the adjacency predicate B.v < A.v.

    The predicate gates B->A edges only, so B events are kept one by one
    while A keeps a single type cell. Versus the unconstrained trace, a7
    may now extend only b2 (3 < 5) but not b6 (9 < 5): its count drops
    from 22 to 12, and the final count from 43 to 33.
    """

    def test_per_event_cell_counts(self, backend):
        engine = build_engine(_mixed_query())
        assert engine.mode is Granularity.MIXED
        assert engine.plan.event_grained == frozenset({"B"})
        counts = []
        for e in SHOWCASE:
            cells = engine.step(e)
            counts.append(cells[0][1][0] if cells else None)
        assert counts == [1, 1, 3, 6, None, 10, 12, 22]

    def test_running_state(self, backend):
        engine = build_engine(_mixed_query())
        a_counts, finals = [], []
        for e in SHOWCASE:
            engine.step(e)
            a_counts.append(engine.role_count("A"))
            finals.append(engine.final_count)
        assert a_counts == [1, 1, 4, 10, 10, 10, 22, 22]
        assert finals == [0, 1, 1, 1, 1, 11, 11, 33]
        assert engine.stored_events() == [
            (2000, "B", 1),
            (6000, "B", 10),
            (8000, "B", 22),
        ]

    def test_oracle_agrees(self):
        query = _mixed_query()
        trends = enumerate_trends(SHOWCASE, query)
        assert len(trends) == 33
        ends = [sum(1 for t in trends if t.end.event.time == tm) for tm in (2000, 6000, 8000)]
        assert ends == [1, 10, 22]


class TestSelfAdjacency:
    def test_strictly_increasing_values(self, backend):
        # A+ where each step must strictly increase v: chains are the
        # increasing runs over adjacent picks.
        events = [
            Event(1000, "A", {"v": 1}),
            Event(2000, "A", {"v": 2}),
            Event(3000, "A", {"v": 1}),
        ]
        query = make_query(pattern="A+", where="A.v < NEXT(A).v")
        engine = build_engine(query).run(events)
        assert engine.mode is Granularity.MIXED
        assert engine.plan.event_grained == frozenset({"A"})
        # a1; a2; a3; (a1,a2) -- value 1 is not < 1, so (a1,a3) is out.
        assert engine.final_count == 4
        assert len(enumerate_trends(events, query)) == 4

    def test_tied_events_never_chain(self, backend):
        events = [Event(1000, "A", {"v": 1}), Event(1000, "A", {"v": 2})]
        query = make_query(pattern="A+", where="A.v < NEXT(A).v")
        engine = build_engine(query).run(events)
        assert engine.final_count == 2


class TestStateFootprint:
    @staticmethod
    def _run(n_a, n_b):
        events = []
        t = 1000
        for i in range(n_a + n_b):
            etype = "B" if i % ((n_a + n_b) // max(n_b, 1)) == 0 and n_b else "A"
            events.append(Event(t, etype, {"v": i % 7}))
            t += 1000
        engine = build_engine(_mixed_query())
        engine.run(events)
        stored = len(engine.stored_events())
        return engine.peak_entries, stored

    def test_entries_track_stored_events_only(self, backend):
        # Quadrupling the A traffic leaves the footprint unchanged; the
        # state grows with B (event-grained) events alone.
        peak_small, stored_small = self._run(100, 5)
        peak_large, stored_large = self._run(400, 5)
        assert stored_small == stored_large
        assert peak_small == peak_large
        # One A type cell, every B stored, plus one in-batch shadow copy.
        assert peak_small == 1 + stored_small + 1

    def test_entries_grow_with_event_grained_count(self, backend):
        peak_5, _ = self._run(100, 5)
        peak_10, _ = self._run(100, 10)
        assert peak_10 - peak_5 == 5


_CASES = [
    ("(SEQ(A+, B))+", "B.v < A.v"),
    ("(SEQ(A+, B))+", "A.v <= B.v"),
    ("(SEQ(A+, B))+", "B.v < A.v AND A.v <= B.v"),
    ("A+", "A.v < NEXT(A).v"),
    ("SEQ(A+, B)", "A.v >= B.v"),
    ("SEQ(A+, B)", "A.v < NEXT(A).v"),
    ("SEQ(A+, B)", "A.v < NEXT(A).v AND A.v >= B.v"),
]


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_random_mixed_matches_oracle(data):
    pattern, where = data.draw(st.sampled_from(_CASES))
    if data.draw(st.booleans()):
        where += " AND A.v > 0"
    query = make_query(
        pattern=pattern,
        where=where,
        returns="COUNT(*), SUM(A.v), MAX(A.v), AVG(A.v)",
    )
    events = data.draw(stream_strategy())
    expected = aggregate_trends(enumerate_trends(events, query), query.aggregates)
    engine = build_engine(query).run(events)
    got = engine.results()
    for name, want in expected.items():
        if isinstance(want, float):
            assert got[name] == pytest.approx(want, rel=1e-9)
        else:
            assert got[name] == want
