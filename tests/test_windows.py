"""Sliding-window routing, partitioning and lifecycle."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trendagg import Event, Schema, WindowManager, WindowSpec, windows_of
from trendagg.cli import oracle_rows
from trendagg.errors import MissingGroupAttribute

from conftest import NEXT_SAFE, make_query

GROUPED_SCHEMA = Schema(
    {t: {"v": "int", "g": "int"} for t in ("A", "B", "C")}
)


def _ev(time, etype, v=0, g=None):
    attrs = {"v": v}
    if g is not None:
        attrs["g"] = g
    return Event(time, etype, attrs)


class TestWindowArithmetic:
    def test_ids_for_time(self):
        spec = WindowSpec(within_ms=10, slide_ms=5)
        assert list(windows_of(0, spec)) == [0]
        assert list(windows_of(4, spec)) == [0]
        assert list(windows_of(7, spec)) == [0, 1]
        assert list(windows_of(12, spec)) == [1, 2]
        # Early times touch fewer windows: there is no window -1.
        assert list(windows_of(3, WindowSpec(20, 5))) == [0]

    def test_bounds(self):
        spec = WindowSpec(within_ms=10, slide_ms=5)
        assert spec.start_of(3) == 15
        assert spec.end_of(3) == 25
        for t in range(0, 40):
            for wid in windows_of(t, spec):
                assert spec.start_of(wid) <= t < spec.end_of(wid)

    def test_tumbling_covers_each_instant_once(self):
        spec = WindowSpec(within_ms=10, slide_ms=10)
        for t in range(0, 50):
            assert len(list(windows_of(t, spec))) == 1


class TestLifecycle:
    def test_window_closes_when_first_event_passes_it(self):
        query = make_query(within="10 s", schema=GROUPED_SCHEMA)
        manager = WindowManager(query)
        assert manager.ingest(_ev(1000, "A", v=1)) == []
        assert manager.ingest(_ev(2000, "B", v=2)) == []
        rows = manager.ingest(_ev(11000, "A", v=3))
        assert [r.wid for r in rows] == [0]
        assert rows[0].window_start_ms == 0
        assert rows[0].window_end_ms == 10000
        assert rows[0].values == {"COUNT(*)": 1}
        # The late A landed in window 1 only.
        final = manager.finish()
        assert [r.wid for r in final] == [] or all(r.wid >= 1 for r in final)

    def test_rows_come_out_in_wid_key_order(self):
        query = make_query(
            pattern="A+", within="4 s", slide="2 s",
            group_by="g", schema=GROUPED_SCHEMA,
        )
        rng = random.Random(3)
        events = [
            _ev(1000 * i, "A", v=rng.randrange(5), g=rng.choice((1, 2)))
            for i in range(1, 30)
        ]
        manager = WindowManager(query)
        rows = list(manager.run(events))
        assert rows == sorted(rows, key=lambda r: (r.wid, r.key))
        assert manager.rows_emitted == len(rows)

    def test_entry_accounting_balances(self):
        query = make_query(within="5 s", slide="1 s", schema=GROUPED_SCHEMA)
        manager = WindowManager(query)
        for i in range(1, 40):
            manager.ingest(_ev(500 * i, "AB"[i % 2], v=i))
        assert manager.current_entries > 0
        manager.finish()
        assert manager.current_entries == 0
        assert manager.peak_entries >= 5  # five overlapping windows alive

    def test_empty_windows_suppressed_by_default(self):
        query = make_query(pattern="SEQ(A, B)", semantics="cont",
                           within="10 s", schema=GROUPED_SCHEMA)
        events = [_ev(1000, "A"), _ev(2000, "C")]  # severed, never finishes
        assert list(WindowManager(query).run(events)) == []
        rows = list(WindowManager(query, emit_empty=True).run(events))
        assert [r.values for r in rows] == [{"COUNT(*)": 0}]

    def test_kept_event_outlives_its_oldest_window(self):
        # a2 is kept with one cell per window: 2 trends end at it in window
        # 0 (a1 a2, a2), 1 in window 1. Window 0 closes when a3 arrives, so
        # a3 must extend a2's window-1 cell.
        query = make_query(pattern="A+", where="A.v < NEXT(A).v",
                           within="3 s", slide="1 s", schema=GROUPED_SCHEMA)
        events = [_ev(0, "A", v=0), _ev(1000, "A", v=1), _ev(3000, "A", v=2)]
        rows = list(WindowManager(query).run(events))
        assert [(r.wid, r.values["COUNT(*)"]) for r in rows] == [
            (0, 3), (1, 3), (2, 1), (3, 1),
        ]
        assert rows == list(oracle_rows(query, events))

    def test_untouched_windows_never_emit(self):
        query = make_query(within="10 s", schema=GROUPED_SCHEMA)
        manager = WindowManager(query, emit_empty=True)
        rows = list(manager.run([_ev(50000, "A"), _ev(51000, "B")]))
        # Windows 0..3 saw nothing and produce nothing even with
        # emit_empty; only window 5 (50-60 s) has an instance.
        assert [r.wid for r in rows] == [5]


class TestPartitioning:
    def test_groups_are_independent(self):
        query = make_query(semantics="cont", group_by="g",
                           within="100 s", schema=GROUPED_SCHEMA)
        events = [
            _ev(1000, "A", v=1, g=1),
            _ev(2000, "A", v=1, g=2),
            _ev(3000, "C", g=1),  # severs group 1 only
            _ev(4000, "B", v=2, g=1),
            _ev(5000, "B", v=2, g=2),
        ]
        rows = list(WindowManager(query).run(events))
        assert [(r.key, r.values["COUNT(*)"]) for r in rows] == [((2,), 1)]

    def test_matched_event_requires_group_attrs(self):
        query = make_query(group_by="g", within="10 s", schema=GROUPED_SCHEMA)
        manager = WindowManager(query)
        with pytest.raises(MissingGroupAttribute):
            manager.ingest(_ev(1000, "A", v=1))

    def test_unmatched_event_without_key_is_dropped(self):
        query = make_query(semantics="cont", group_by="g",
                           within="10 s", schema=GROUPED_SCHEMA)
        manager = WindowManager(query)
        manager.ingest(_ev(1000, "A", v=1, g=1))
        manager.ingest(_ev(2000, "C"))  # no g: cannot be routed anywhere
        rows = manager.finish()
        # The chain survived, so the trend still finishes.
        manager2 = WindowManager(query)
        manager2.ingest(_ev(1000, "A", v=1, g=1))
        manager2.ingest(_ev(3000, "B", v=1, g=1))
        assert rows == []  # no B ever arrived here
        assert [r.values["COUNT(*)"] for r in manager2.finish()] == [1]

    def test_equivalence_attribute_partitions(self):
        query = make_query(where="[g]", within="100 s", schema=GROUPED_SCHEMA)
        events = [
            _ev(1000, "A", v=1, g=1),
            _ev(2000, "A", v=1, g=2),
            _ev(3000, "B", v=2, g=1),
        ]
        rows = list(WindowManager(query).run(events))
        # Only the g=1 partition finishes: a1 -> b3.
        assert [(r.key, r.values["COUNT(*)"]) for r in rows] == [((1,), 1)]


class TestOracleEquivalence:
    """Windowed runs against per-slice enumeration, both directions."""

    QUERIES = [
        dict(within="3 s", slide="1 s", group_by="g"),
        dict(within="3 s", slide="1 s", group_by="g", semantics="cont"),
        dict(pattern="SEQ(A+, B)", within="3 s", slide="1 s",
             semantics="next"),
        dict(within="4 s", slide="2 s", where="[g] AND B.v < A.v"),
        dict(pattern="A+", within="2 s", slide="1 s",
             returns="COUNT(*), SUM(A.v), MIN(A.v)"),
    ]

    @pytest.mark.parametrize("spec", range(len(QUERIES)))
    def test_rows_match_oracle(self, spec):
        kwargs = dict(self.QUERIES[spec])
        kwargs["schema"] = GROUPED_SCHEMA
        query = make_query(**kwargs)
        rng = random.Random(9000 + spec)
        for _ in range(25):
            times = sorted(rng.sample(range(0, 12000), rng.randrange(0, 18)))
            events = [
                _ev(t, rng.choice("AABBC"), v=rng.randrange(4), g=rng.choice((1, 2)))
                for t in times
            ]
            got = list(WindowManager(query).run(events))
            want = list(oracle_rows(query, events))
            assert sorted(got, key=lambda r: (r.wid, r.key)) == sorted(
                want, key=lambda r: (r.wid, r.key)
            ), events
            for g_row, w_row in zip(
                sorted(got, key=lambda r: (r.wid, r.key)),
                sorted(want, key=lambda r: (r.wid, r.key)),
            ):
                assert g_row.values == w_row.values


# (semantics, pattern, where, returns, ties). The next and cont kernels
# are checked without timestamp ties, as in their single-window tests.
_WINDOWED_FAMILIES = [
    ("any", "A+", None, "COUNT(*), SUM(A.v), MIN(A.v), AVG(A.v)", True),
    ("any", "(SEQ(A+, B))+", None, "COUNT(*), COUNT(A), MAX(B.v)", True),
    ("any", "SEQ(A+, B, C+)", "A.v > 0", "COUNT(*), SUM(C.v), MIN(B.v)", True),
    ("any", "SEQ(A X+, A Y)", None, "COUNT(*), SUM(X.v), AVG(Y.v)", True),
    ("any", "A+", "A.v < NEXT(A).v", "COUNT(*), SUM(A.v), MAX(A.v)", True),
    ("any", "(SEQ(A+, B))+", "B.v < A.v", "COUNT(*), SUM(B.v), MIN(A.v)", True),
    ("cont", "(SEQ(A+, B))+", None, "COUNT(*), SUM(A.v)", False),
    ("cont", "A+", "A.v < NEXT(A).v AND A.v > 0", "COUNT(*), MAX(A.v)", False),
    ("cont", "SEQ(A+, B, C+)", None, "COUNT(*), AVG(A.v)", False),
    *(
        ("next", pattern, where, "COUNT(*), SUM(A.v), MIN(A.v)", False)
        for pattern, where in NEXT_SAFE
    ),
]


@st.composite
def _window_shapes(draw):
    """(within, slide) in ms: tumbling, within a multiple of slide, or not."""
    slide = draw(st.sampled_from((1000, 1500, 2000)))
    shape = draw(st.sampled_from(("tumbling", "multiple", "other")))
    if shape == "tumbling":
        return slide, slide
    within = slide * draw(st.integers(2, 4))
    return (within + 500 if shape == "other" else within), slide


@settings(max_examples=500, deadline=None)
@given(data=st.data())
def test_windowed_rows_match_oracle(data):
    semantics, pattern, where, returns, ties = data.draw(
        st.sampled_from(_WINDOWED_FAMILIES)
    )
    grouping = data.draw(st.sampled_from((None, "GROUP-BY", "[g]")))
    if grouping == "[g]":
        where = f"{where} AND [g]" if where else "[g]"
    within, slide = data.draw(_window_shapes())
    query = make_query(
        pattern=pattern,
        semantics=semantics,
        where=where,
        returns=returns,
        group_by="g" if grouping == "GROUP-BY" else None,
        within=f"{within} ms",
        slide=f"{slide} ms",
        schema=GROUPED_SCHEMA,
    )
    events, t = [], 0
    for _ in range(data.draw(st.integers(0, 14))):
        t += data.draw(st.sampled_from((0, 500, 1000, 1500) if ties else (500, 1000, 1500)))
        events.append(
            _ev(
                t,
                data.draw(st.sampled_from("AABBC")),
                v=data.draw(st.integers(0, 4)),
                g=data.draw(st.sampled_from((1, 2))),
            )
        )
    emit_empty = data.draw(st.booleans())
    got = list(WindowManager(query, emit_empty=emit_empty).run(events))
    want = list(oracle_rows(query, events, emit_empty=emit_empty))
    assert [(r.wid, r.key, r.values) for r in got] == [
        (r.wid, r.key, r.values) for r in want
    ]
