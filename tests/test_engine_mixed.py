"""Mixed-grained engine: adjacency predicates force per-event storage."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trendagg import (
    Event,
    Granularity,
    MissingAttribute,
    Schema,
    WindowManager,
    build_engine,
)
from trendagg.cli import oracle_rows
from trendagg.oracle import aggregate_trends, enumerate_trends

from conftest import SHOWCASE, make_query, row_tuples, stream_strategy

_VW_SCHEMA = Schema({"A": {"v": "int", "w": "int"}})
_FLOAT_SCHEMA = Schema({"A": {"v": "float"}, "B": {"v": "float"}})


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

    def test_per_event_cell_counts(self):
        engine = build_engine(_mixed_query())
        assert engine.plan.mode is Granularity.MIXED
        assert engine.plan.event_grained == frozenset({"B"})
        counts = []
        for e in SHOWCASE:
            cells = engine.step(e)
            counts.append(cells[0][1][0] if cells else None)
        assert counts == [1, 1, 3, 6, None, 10, 12, 22]

    def test_running_state(self):
        engine = build_engine(_mixed_query())
        a_counts, finals = [], []
        for e in SHOWCASE:
            engine.step(e)
            snapshot = engine.kernel.snapshot()
            a_counts.append(snapshot.counts.get("A", 0))
            finals.append(snapshot.final)
        assert a_counts == [1, 1, 4, 10, 10, 10, 22, 22]
        assert finals == [0, 1, 1, 1, 1, 11, 11, 33]
        assert engine.kernel.snapshot().stored == [
            (2000, "B", 1),
            (6000, "B", 10),
            (8000, "B", 22),
        ]

    def test_oracle_agrees(self):
        query = _mixed_query()
        trends = list(enumerate_trends(SHOWCASE, query))
        assert len(trends) == 33
        ends = [sum(1 for t in trends if t[-1].event.time == tm) for tm in (2000, 6000, 8000)]
        assert ends == [1, 10, 22]


class TestMergedPredecessors:
    """A variable with both a type-grained and a kept predecessor.

    In SEQ(A+, B+) with A.v < B.v, A events are kept and B keeps a type
    cell, so a B event merges the B cell with the kept A events it passes.
    The values are multiples of 1/4, so float sums are exact in any order.
    """

    EVENTS = [
        Event(1000, "A", {"v": 1.5}),
        Event(2000, "B", {"v": 2.0}),
        Event(3000, "A", {"v": 0.5}),
        Event(4000, "B", {"v": 3.25}),
        Event(5000, "B", {"v": 1.0}),
        Event(6000, "A", {"v": 4.0}),
        Event(7000, "B", {"v": 5.5}),
        Event(7000, "B", {"v": 0.25}),
        Event(8000, "A", {"v": 2.75}),
        Event(9000, "B", {"v": 3.0}),
    ]

    @staticmethod
    def _query(**kw):
        return make_query(
            pattern="SEQ(A+, B+)",
            where="A.v < B.v",
            returns="COUNT(*), SUM(B.v), MIN(A.v), MIN(B.v)",
            schema=_FLOAT_SCHEMA,
            **kw,
        )

    def test_one_window_matches_oracle(self):
        query = self._query()
        engine = build_engine(query).run(self.EVENTS)
        assert engine.plan.mode is Granularity.MIXED
        assert engine.plan.event_grained == frozenset({"A"})
        expected = aggregate_trends(enumerate_trends(self.EVENTS, query), query.aggregates)
        assert expected["COUNT(*)"] > 0
        assert engine.results() == expected

    def test_sliding_windows_match_oracle(self):
        query = self._query(within="4 s", slide="1 s")
        rows = list(WindowManager(query).run(self.EVENTS))
        assert len(rows) > 1
        assert row_tuples(rows) == row_tuples(oracle_rows(query, self.EVENTS))


class TestSelfAdjacency:
    def test_strictly_increasing_values(self):
        # A+ where each step must strictly increase v: chains are the
        # increasing runs over adjacent picks.
        events = [
            Event(1000, "A", {"v": 1}),
            Event(2000, "A", {"v": 2}),
            Event(3000, "A", {"v": 1}),
        ]
        query = make_query(pattern="A+", where="A.v < NEXT(A).v")
        engine = build_engine(query).run(events)
        assert engine.plan.mode is Granularity.MIXED
        assert engine.plan.event_grained == frozenset({"A"})
        # a1; a2; a3; (a1,a2) -- value 1 is not < 1, so (a1,a3) is out.
        assert engine.kernel.snapshot().final == 4
        assert len(list(enumerate_trends(events, query))) == 4

    def test_tied_events_never_chain(self):
        events = [Event(1000, "A", {"v": 1}), Event(1000, "A", {"v": 2})]
        query = make_query(pattern="A+", where="A.v < NEXT(A).v")
        engine = build_engine(query).run(events)
        assert engine.kernel.snapshot().final == 2


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
        stored = len(engine.kernel.snapshot().stored)
        return engine.peak_entries, stored

    def test_entries_track_stored_events_only(self):
        # Quadrupling the A traffic leaves the footprint unchanged; the
        # state grows with B (event-grained) events alone.
        peak_small, stored_small = self._run(100, 5)
        peak_large, stored_large = self._run(400, 5)
        assert stored_small == stored_large
        assert peak_small == peak_large
        # One A type cell, every B stored, plus one in-batch shadow copy.
        assert peak_small == 1 + stored_small + 1

    def test_entries_grow_with_event_grained_count(self):
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


_OPS = ("<", "<=", ">", ">=", "=", "!=")


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_every_operator_matches_oracle(data):
    # Each operator on a self-adjacency, sometimes followed by a second
    # check on the same pair that the first one short-circuits.
    where = f"A.v {data.draw(st.sampled_from(_OPS))} NEXT(A).v"
    if data.draw(st.booleans()):
        where += f" AND A.v {data.draw(st.sampled_from(_OPS))} NEXT(A).v"
    query = make_query(pattern="A+", where=where, returns="COUNT(*), SUM(A.v)")
    events = data.draw(stream_strategy(types="AB"))
    expected = aggregate_trends(enumerate_trends(events, query), query.aggregates)
    assert build_engine(query).run(events).results() == expected


class TestMissingPredicateAttribute:
    QUERY = dict(pattern="A+", where="A.v < NEXT(A).v", within="10 s", slide="5 s")

    def test_kept_event_lacks_the_attribute(self):
        manager = WindowManager(make_query(**self.QUERY))
        manager.ingest(Event(1000, "A", {}))  # kept, nothing to compare yet
        with pytest.raises(MissingAttribute, match="attribute v"):
            manager.ingest(Event(2000, "A", {"v": 1}))

    def test_new_event_lacks_the_attribute(self):
        manager = WindowManager(make_query(**self.QUERY))
        manager.ingest(Event(1000, "A", {"v": 1}))
        with pytest.raises(MissingAttribute, match="attribute v"):
            manager.ingest(Event(2000, "A", {}))

    def test_unchecked_events_may_lack_it(self):
        # Tied events are never compared, and a kept event that an earlier
        # check rejects never meets the later one.
        engine = build_engine(make_query(pattern="A+", where="A.v < NEXT(A).v"))
        engine.run([Event(1000, "A", {}), Event(1000, "A", {"v": 2})])
        assert engine.kernel.snapshot().final == 2
        schema_query = make_query(
            pattern="A+",
            where="A.v < NEXT(A).v AND A.w < NEXT(A).w",
            schema=_VW_SCHEMA,
        )
        engine = build_engine(schema_query)
        engine.run([Event(1000, "A", {"v": 5}), Event(2000, "A", {"v": 1, "w": 0})])
        assert engine.kernel.snapshot().final == 2
