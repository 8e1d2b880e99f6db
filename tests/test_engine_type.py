"""Type-grained engine: per-variable cells, skip-till-any-match."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trendagg import Engine, Event, InputError, OutOfOrder
from trendagg.oracle import aggregate_trends, enumerate_trends

from conftest import SHOWCASE, make_query, stream_strategy


def _counts(engine, events):
    """New-cell trend count per event (None when the event matches nothing)."""
    out = []
    for e in events:
        cells = engine.step([e])
        out.append(cells[0][1][0] if cells else None)
    return out


class TestShowcaseTrace:
    """The engine's visible state after every event of the worked example.

    Stream: a1 b2 a3 a4 c5 b6 a7 b8 (one event per second); pattern
    (SEQ(A+, B))+ under skip-till-any-match. Each matched event's cell
    counts the trends ending in that event; the per-variable cells
    accumulate them. Expected values recomputed by hand and cross-checked
    against the enumeration oracle below.
    """

    def test_per_event_cell_counts(self):
        engine = Engine(make_query())
        assert engine.compiled.event_grained == frozenset()
        assert _counts(engine, SHOWCASE) == [1, 1, 3, 6, None, 10, 22, 32]

    def test_variable_cell_progression(self):
        engine = Engine(make_query())
        a_counts, b_counts = [], []
        for e in SHOWCASE:
            engine.step([e])
            counts = engine.kernel.snapshot().counts
            a_counts.append(counts.get("A", 0))
            b_counts.append(counts.get("B", 0))
        assert a_counts == [1, 1, 4, 10, 10, 10, 32, 32]
        assert b_counts == [0, 1, 1, 1, 1, 11, 11, 43]
        assert engine.kernel.snapshot().final == 43

    def test_oracle_agrees_with_trace(self):
        query = make_query()
        trends = list(enumerate_trends(SHOWCASE, query))
        assert len(trends) == 43
        # Finished trends end at a B event; their counts are the B-cell
        # increments from the trace above.
        ends = [sum(1 for t in trends if t[-1].event.time == tm) for tm in (2000, 6000, 8000)]
        assert ends == [1, 10, 32]

    def test_partial_count_at_a7_decomposes(self):
        # The 22 partial trends ending at a7 split into pure A-chains (8)
        # and chains with at least one completed SEQ(A+, B) body (14);
        # the latter needs alias variables to stay a legal pattern.
        chains = list(enumerate_trends(SHOWCASE, make_query(pattern="A+")))
        with_body = list(enumerate_trends(
            SHOWCASE, make_query(pattern="SEQ((SEQ(A X+, B))+, A Y+)")
        ))
        at7 = lambda ts: sum(1 for t in ts if t[-1].event.time == 7000)
        assert at7(chains) == 8
        assert at7(with_body) == 14
        assert at7(chains) + at7(with_body) == 22


class TestEqualTimestamps:
    def test_tied_events_do_not_chain(self):
        # Two A's at the same instant can't extend each other: each is a
        # fresh length-1 trend.
        events = [Event(1000, "A", {"v": 1}), Event(1000, "A", {"v": 2})]
        engine = Engine(make_query(pattern="A+"))
        assert [cell[0] for _, cell in engine.step(events)] == [1, 1]
        assert engine.kernel.snapshot().final == 2

    def test_tied_batch_matches_oracle(self):
        events = [
            Event(1000, "A", {"v": 1}),
            Event(1000, "A", {"v": 2}),
            Event(2000, "B", {"v": 3}),
        ]
        query = make_query(pattern="SEQ(A+, B)")
        engine = Engine(query).run(events)
        # Trends: (a,b) twice -- the tied A's contribute independently.
        assert engine.kernel.snapshot().final == 2
        assert len(list(enumerate_trends(events, query))) == 2

    def test_a_timestamp_is_stepped_once_in_order(self):
        # Stepped as two timestamps, a tie or a time that goes back made
        # the two A's chain: a count of 3 where the oracle counts 2.
        query = make_query(pattern="A+")
        a1, a2 = Event(1000, "A", {"v": 1}), Event(2000, "A", {"v": 1})
        assert len(list(enumerate_trends([a1, a1], query))) == 2
        with pytest.raises(OutOfOrder, match=r"^row 2: time went backwards \(1000 ms after 2000 ms\)$"):
            Engine(query).run([a2, a1])
        engine = Engine(query)
        engine.step([a1])
        with pytest.raises(OutOfOrder, match=r"^row 2: time did not advance \(1000 ms after 1000 ms\)$"):
            engine.step([a1])
        assert engine.kernel.snapshot().final == 1  # the refused step changed nothing

    def test_one_step_takes_one_time(self):
        engine = Engine(make_query(pattern="A+"))
        with pytest.raises(InputError, match="not 1000 ms and 2000 ms"):
            engine.step([Event(1000, "A", {"v": 1}), Event(2000, "A", {"v": 1})])
        assert engine.kernel.snapshot().final == 0


class TestMultiRoleAliases:
    def test_one_type_playing_two_variables(self):
        # X+ then Y, both read from stream type A: an A event extends X
        # chains and simultaneously closes trends as Y.
        events = [Event(t, "A", {"v": t // 1000}) for t in (1000, 2000, 3000)]
        query = make_query(pattern="SEQ(A X+, A Y)")
        engine = Engine(query).run(events)
        expected = aggregate_trends(enumerate_trends(events, query), query.aggregates)
        # (x1,y2) (x1,y3) (x2,y3) (x1,x2,y3): count 4.
        assert expected["COUNT(*)"] == 4
        assert engine.results() == expected

    def test_same_instant_roles_do_not_feed_each_other(self):
        # A single event may play X and Y, but not both inside one trend.
        events = [Event(1000, "A", {"v": 1}), Event(2000, "A", {"v": 2})]
        query = make_query(pattern="SEQ(A X+, A Y)")
        engine = Engine(query).run(events)
        final = engine.kernel.snapshot().final
        assert final == len(list(enumerate_trends(events, query))) == 1


class TestAggregates:
    def test_min_ignores_unmatchable_event(self):
        # The first B carries the smallest value but cannot match (no A
        # before it), so it must not leak into MIN/MAX.
        events = [
            Event(1000, "B", {"v": -99}),
            Event(2000, "A", {"v": 5}),
            Event(3000, "B", {"v": 7}),
        ]
        query = make_query(returns="MIN(B.v), MAX(B.v), COUNT(*)")
        engine = Engine(query).run(events)
        assert engine.results() == {"MIN(B.v)": 7, "MAX(B.v)": 7, "COUNT(*)": 1}

    def test_all_aggregates_match_oracle(self):
        returns = "COUNT(*), COUNT(A), SUM(A.v), MIN(A.v), MAX(A.v), AVG(A.v), SUM(B.v)"
        query = make_query(returns=returns)
        engine = Engine(query).run(SHOWCASE)
        expected = aggregate_trends(enumerate_trends(SHOWCASE, query), query.aggregates)
        got = engine.results()
        assert got.keys() == expected.keys()
        for name, want in expected.items():
            if isinstance(want, float):
                assert got[name] == pytest.approx(want, rel=1e-9)
            else:
                assert got[name] == want

    def test_empty_engine_results(self):
        query = make_query(returns="COUNT(*), SUM(A.v), AVG(A.v), MIN(A.v)")
        engine = Engine(query)
        assert engine.results() == {
            "COUNT(*)": 0,
            "SUM(A.v)": 0,
            "AVG(A.v)": None,
            "MIN(A.v)": None,
        }


class TestStateFootprint:
    def test_entries_independent_of_stream_length(self):
        query = make_query(pattern="(SEQ(A+, B))+")
        rng = random.Random(5)
        peaks = []
        for n in (100, 1000):
            events = [
                Event(1000 * (i + 1), rng.choice("AAB"), {"v": rng.randrange(9)})
                for i in range(n)
            ]
            engine = Engine(query).run(events)
            peaks.append(engine.peak_entries)
        # One cell per variable.
        assert peaks[0] == peaks[1] == 2


_PATTERNS = ["A+", "SEQ(A+, B)", "(SEQ(A+, B))+", "SEQ(A+, B, C+)", "SEQ(A X+, A Y)"]


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_random_any_matches_oracle(data):
    pattern = data.draw(st.sampled_from(_PATTERNS))
    if pattern == "SEQ(A X+, A Y)":
        where = None
        returns = "COUNT(*), SUM(X.v), AVG(Y.v)"
    else:
        where = data.draw(st.sampled_from([None, "A.v > 1"]))
        returns = (
            "COUNT(*), SUM(A.v), MIN(B.v), AVG(A.v)"
            if "B+" in pattern or "B)" in pattern or "B," in pattern
            else "COUNT(*), SUM(A.v), AVG(A.v)"
        )
    query = make_query(pattern=pattern, where=where, returns=returns)
    events = data.draw(stream_strategy())
    expected = aggregate_trends(enumerate_trends(events, query), query.aggregates)
    engine = Engine(query).run(events)
    got = engine.results()
    assert got.keys() == expected.keys()
    for name, want in expected.items():
        if isinstance(want, float) and not isinstance(got[name], int):
            assert got[name] == pytest.approx(want, rel=1e-9)
        else:
            assert got[name] == want
    assert engine.compiled.event_grained == frozenset()
