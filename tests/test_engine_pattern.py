"""Pattern-grained engine: single match state for next/contiguous runs."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trendagg import Event, Granularity, build_engine
from trendagg.errors import UnsupportedQuery
from trendagg.oracle import enumerate_trends

from conftest import NEXT_SAFE, SHOWCASE, make_query, stream_strategy


def _trace(engine, events):
    counts, lasts, finals = [], [], []
    for e in events:
        cells = engine.step(e)
        counts.append(cells[0][1][0] if cells else None)
        lasts.append(engine.last_count)
        finals.append(engine.final_count)
    return counts, lasts, finals


class TestShowcaseTraces:
    """Worked example under the two single-state semantics.

    Skip-till-next-match ignores the unmatched c5 and keeps extending one
    chain; contiguous drops the open chain when c5 arrives (the committed
    final count survives), then restarts at a7.
    """

    def test_next_trace(self):
        engine = build_engine(make_query(semantics="next"))
        assert engine.mode is Granularity.PATTERN
        counts, lasts, finals = _trace(engine, SHOWCASE)
        assert counts == [1, 1, 2, 3, None, 3, 4, 4]
        assert lasts == [1, 1, 2, 3, 3, 3, 4, 4]
        assert finals == [0, 1, 1, 1, 1, 4, 4, 8]

    def test_cont_trace(self):
        engine = build_engine(make_query(semantics="cont"))
        counts, lasts, finals = _trace(engine, SHOWCASE)
        assert counts == [1, 1, 2, 3, None, None, 1, 1]
        # c5 resets the open chain to zero; b6 cannot restart (B is not
        # the starting variable), a7 begins a fresh chain.
        assert lasts == [1, 1, 2, 3, 0, 0, 1, 1]
        assert finals == [0, 1, 1, 1, 1, 1, 1, 2]

    def test_oracle_agrees(self):
        assert len(enumerate_trends(SHOWCASE, make_query(semantics="next"))) == 8
        assert len(enumerate_trends(SHOWCASE, make_query(semantics="cont"))) == 2


class TestKnownDivergence:
    def test_single_state_undercounts_fixed_length_next(self):
        """With SEQ(A, B) the engine keeps only the newest open A.

        On a,a,b the second A evicts the first, finishing one trend; full
        multi-chain enumeration finds two. Both behaviours are intended:
        the engine trades completeness on patterns like this for constant
        state, and the enumerator documents the gap.
        """
        events = [
            Event(1000, "A", {"v": 1}),
            Event(2000, "A", {"v": 2}),
            Event(3000, "B", {"v": 3}),
        ]
        query = make_query(pattern="SEQ(A, B)", semantics="next")
        engine = build_engine(query).run(events)
        assert engine.final_count == 1
        assert len(enumerate_trends(events, query)) == 2


class TestEdgeBehaviour:
    def test_tied_starts_each_count(self):
        events = [Event(1000, "A", {"v": 1}), Event(1000, "A", {"v": 2})]
        query = make_query(pattern="A+", semantics="next")
        engine = build_engine(query).run(events)
        assert engine.final_count == 2
        assert len(enumerate_trends(events, query)) == 2

    def test_state_stays_constant(self):
        query = make_query(semantics="next")
        engine = build_engine(query)
        assert engine.entries() == 2
        engine.run(SHOWCASE)
        assert engine.entries() == 3
        assert engine.peak_entries == 3

    def test_cont_reset_releases_entry(self):
        query = make_query(semantics="cont")
        engine = build_engine(query)
        engine.step(Event(1000, "A", {"v": 1}))
        assert engine.entries() == 3
        engine.step(Event(2000, "C", {"v": 0}))
        assert engine.entries() == 2

    @pytest.mark.parametrize("semantics", ["next", "cont"])
    def test_aliases_rejected(self, semantics):
        query = make_query(pattern="SEQ(A X+, A Y)", semantics=semantics)
        with pytest.raises(UnsupportedQuery):
            build_engine(query)


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_random_next_matches_oracle(data):
    pattern, where = data.draw(st.sampled_from(NEXT_SAFE))
    if data.draw(st.booleans()):
        where = f"{where} AND A.v > 0" if where else "A.v > 0"
    query = make_query(pattern=pattern, semantics="next", where=where)
    events = data.draw(stream_strategy(ties=False))
    engine = build_engine(query).run(events)
    assert engine.final_count == len(enumerate_trends(events, query))


_CONT_CASES = [
    ("A+", None),
    ("A+", "A.v < NEXT(A).v"),
    ("SEQ(A, B)", None),
    ("SEQ(A+, B)", "A.v <= B.v"),
    ("(SEQ(A+, B))+", None),
    ("(SEQ(A+, B))+", "B.v < A.v"),
    ("SEQ(A+, B, C+)", None),
]


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_random_cont_matches_oracle(data):
    pattern, where = data.draw(st.sampled_from(_CONT_CASES))
    if data.draw(st.booleans()):
        where = f"{where} AND A.v > 0" if where else "A.v > 0"
    query = make_query(pattern=pattern, semantics="cont", where=where)
    events = data.draw(stream_strategy(ties=False))
    engine = build_engine(query).run(events)
    assert engine.final_count == len(enumerate_trends(events, query))
