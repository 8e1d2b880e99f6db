"""Sliding-window routing, partitioning and lifecycle."""

import dataclasses
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trendagg import (
    Engine,
    Event,
    ResultRow,
    Schema,
    WindowManager,
    WindowSpec,
    windows_of,
)
from trendagg.cli import oracle_rows
from trendagg.errors import MissingGroupAttribute, OutOfOrder
from trendagg.windows import route

from conftest import fine_manager, make_query, row_tuples

GROUPED_SCHEMA = Schema(
    {t: {"v": "int", "g": "int"} for t in ("A", "B", "C")}
)
FLOAT_SCHEMA = Schema(
    {t: {"v": "float", "g": "int"} for t in ("A", "B", "C")}
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

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_manager_spans_match_windows_of(self, data):
        # ``ingest`` works out an event's windows by arithmetic; the
        # windows its key opens and its kernel's width must be those of
        # ``windows_of``, tumbling or sliding, early times included.
        slide = data.draw(st.integers(1, 5_000), label="slide")
        within = slide * data.draw(st.integers(1, 6)) + data.draw(st.integers(0, slide - 1))
        spec = WindowSpec(within, slide)
        time = data.draw(st.integers(0, 3 * within) | st.integers(0, 10**12), label="time")
        manager = WindowManager(make_query(within=f"{within} ms", slide=f"{slide} ms"))
        manager.ingest(Event(time, "A", {"v": 1}))
        first = windows_of(time, spec)
        assert sorted(manager._keys_by_wid) == list(first)
        assert manager._engines[()].kernel.width == len(first)
        # A later event before the oldest window ends opens only the rest.
        later = time + data.draw(st.integers(0, spec.end_of(first[0]) - time - 1))
        manager.ingest(Event(later, "A", {"v": 1}))
        second = windows_of(later, spec)
        assert sorted(manager._keys_by_wid) == sorted({*first, *second})
        assert manager._engines[()].kernel.width == len(second)


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
        again = WindowManager(query)  # a second pass over the same events
        assert row_tuples(again.run(events)) == row_tuples(rows)
        assert again.peak_entries == manager.peak_entries

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
        assert row_tuples(rows) == row_tuples(oracle_rows(query, events))

    def test_idle_key_is_trimmed_at_its_next_step(self):
        # Key 1 holds windows 0-2 when windows 0 and 1 close; the close only
        # reads them, and key 1's next event cuts both off its state, with
        # the kept event of 0 ms, which held window 0 only.
        query = make_query(pattern="A+", where="A.v < NEXT(A).v",
                           group_by="g", within="3 s", slide="1 s",
                           schema=GROUPED_SCHEMA)
        events = [_ev(0, "A", v=0, g=1), _ev(2000, "A", v=1, g=1),
                  _ev(4000, "A", v=1, g=2), _ev(4500, "A", v=2, g=1)]
        manager = WindowManager(query)
        manager.ingest(events[0])
        manager.ingest(events[1])
        rows = manager.ingest(events[2])
        assert [(r.wid, r.key) for r in rows] == [(0, (1,)), (1, (1,))]
        kernel = manager._engines[(1,)].kernel
        assert (kernel.base, kernel.width, kernel._stale, kernel._dead) == (2, 1, 2, 1)
        snapshot = kernel.snapshot()
        assert [(t, n) for t, _, n in snapshot.stored] == [(2000, 1)]
        assert snapshot.entries == 1  # the kept event of 2 s, in window 2
        assert len(kernel.final_acc) == 3 * kernel.plan.k
        rows += manager.ingest(events[3])
        assert (kernel._stale, kernel._dead) == (0, 0)
        assert [t for t, _, _ in kernel.snapshot().stored] == [2000, 4500]
        assert len(kernel.final_acc) == kernel.width * kernel.plan.k
        rows += manager.finish()
        assert row_tuples(rows) == row_tuples(oracle_rows(query, events))

    def test_closing_ahead_of_the_stream_ends_the_timestamp(self):
        # A key dropped by an explicit close while its timestamp lasted must
        # not have its tie state freed a second time later.
        manager = WindowManager(make_query(pattern="A+", within="10 s"))
        manager.ingest(_ev(1000, "A"))
        manager.ingest(_ev(2000, "A"))
        assert [r.values for r in manager.close_expired(20000)] == [{"COUNT(*)": 3}]
        assert manager.current_entries == 0
        manager.ingest(_ev(20000, "A"))
        assert manager.current_entries == 1  # the cell of 20 s

    def test_rows_are_frozen_dataclasses(self):
        query = make_query(pattern="A+", group_by="g", returns="COUNT(*), SUM(A.v)",
                           within="2 s", slide="1 s", schema=GROUPED_SCHEMA)
        events = [_ev(500 * i, "A", v=i, g=i % 2) for i in range(1, 8)]
        rows = list(WindowManager(query).run(events))
        built = [
            ResultRow(
                wid=r.wid,
                window_start_ms=query.slide_ms * r.wid,
                window_end_ms=query.slide_ms * r.wid + query.within_ms,
                key=r.key,
                values=dict(r.values),
            )
            for r in rows
        ]
        assert rows == built
        assert [repr(r) for r in rows] == [repr(r) for r in built]
        assert [hash(r) for r in rows] == [hash(r) for r in built]
        with pytest.raises(dataclasses.FrozenInstanceError):
            rows[0].wid = 9
        moved = dataclasses.replace(rows[0], wid=9)
        assert (moved.wid, moved.key, moved.values) == (9, rows[0].key, rows[0].values)
        assert rows[0].wid == built[0].wid

    def test_out_of_order_event_raises(self):
        query = make_query(pattern="A+", within="10 s", slide="5 s",
                           schema=GROUPED_SCHEMA)
        ties = [_ev(1000, "A"), _ev(1000, "A"), _ev(2000, "B")]
        assert [r.values for r in WindowManager(query).run(ties)] == [
            r.values for r in oracle_rows(query, ties)
        ]
        # Unchecked, A@1 s after A@12 s made windows 1 and 2 each report a
        # count of 3 for the one event they hold.
        manager = WindowManager(query)
        with pytest.raises(OutOfOrder) as err:
            list(manager.run([_ev(12000, "A"), _ev(1000, "A")]))
        assert err.value.row_number == 2
        assert manager.events_ingested == 1
        # The oracle too: unchecked, it reported window 0 twice once A@2 s
        # came after A@12 s had closed it.
        with pytest.raises(OutOfOrder) as err:
            list(oracle_rows(query, [_ev(1000, "A"), _ev(12000, "A"), _ev(2000, "A")]))
        assert err.value.row_number == 3

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

    def test_oracle_emits_a_window_as_it_closes(self):
        # Window 0 ends at 10 s: its row comes out as the event at 11 s
        # arrives, before the oracle reads any further.
        query = make_query(within="10 s", schema=GROUPED_SCHEMA)
        events = [_ev(1000, "A"), _ev(2000, "B"), _ev(11000, "A"),
                  _ev(12000, "B")]
        read = []

        def stream():
            for event in events:
                read.append(event)
                yield event

        rows = oracle_rows(query, stream())
        first = next(rows)
        assert (first.wid, first.values) == (0, {"COUNT(*)": 1})
        assert read == events[:3]
        assert row_tuples([first, *rows]) == row_tuples(
            WindowManager(query).run(events)
        )

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


# (semantics, pattern, where, returns); every stream may hold timestamp ties.
_WINDOWED_FAMILIES = [
    ("any", "A+", None, "COUNT(*), SUM(A.v), MIN(A.v), AVG(A.v)"),
    ("any", "(SEQ(A+, B))+", None, "COUNT(*), COUNT(A), MAX(B.v)"),
    ("any", "SEQ(A+, B, C+)", "A.v > 0", "COUNT(*), SUM(C.v), MIN(B.v)"),
    ("any", "SEQ(A X+, A Y)", None, "COUNT(*), SUM(X.v), AVG(Y.v)"),
    ("any", "A+", "A.v < NEXT(A).v", "COUNT(*), SUM(A.v), MAX(A.v)"),
    ("any", "(SEQ(A+, B))+", "B.v < A.v", "COUNT(*), SUM(B.v), MIN(A.v)"),
    ("any", "A+", "A.v < NEXT(A).v AND A.g <= NEXT(A).g", "COUNT(*), SUM(A.v)"),
    ("any", "SEQ(A+, B+)", "A.v < B.v AND B.v < NEXT(B).v", "COUNT(*), SUM(B.v), MIN(A.v)"),
    ("cont", "(SEQ(A+, B))+", None, "COUNT(*), SUM(A.v)"),
    ("cont", "A+", "A.v < NEXT(A).v AND A.v > 0", "COUNT(*), MAX(A.v)"),
    ("cont", "SEQ(A+, B, C+)", None, "COUNT(*), AVG(A.v)"),
    ("cont", "SEQ(A X+, A Y)", None, "COUNT(*), SUM(X.v), AVG(Y.v)"),
    ("cont", "A+", "A.v < NEXT(A).v", "COUNT(*), SUM(A.v), AVG(A.v)"),
    ("next", "A+", None, "COUNT(*), SUM(A.v), MIN(A.v)"),
    ("next", "SEQ(A, B)", None, "COUNT(*), SUM(A.v), MIN(A.v)"),
    ("next", "SEQ(A+, B)", "A.v <= B.v", "COUNT(*), SUM(A.v), MIN(A.v)"),
    ("next", "(SEQ(A+, B))+", None, "COUNT(*), SUM(A.v), MIN(A.v)"),
    ("next", "(SEQ(A+, B))+", "B.v < A.v", "COUNT(*), SUM(A.v), MIN(A.v)"),
    ("next", "(SEQ(A+, B+))+", None, "COUNT(*), SUM(A.v), MIN(A.v)"),
    ("next", "A+", "A.v < NEXT(A).v", "COUNT(*), SUM(A.v), MIN(A.v)"),
    ("next", "A+", "A.v < NEXT(A).v", "COUNT(*), SUM(A.v), AVG(A.v)"),
    ("next", "(SEQ(A+, B))+", "B.v < A.v", "COUNT(*), COUNT(A), SUM(B.v)"),
    ("next", "SEQ(A+, B, C+)", None, "COUNT(*), SUM(A.v), MIN(A.v)"),
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
    semantics, pattern, where, returns = data.draw(st.sampled_from(_WINDOWED_FAMILIES))
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
        t += data.draw(st.sampled_from((0, 500, 1000, 1500)))
        etype = data.draw(st.sampled_from("AABBC"))
        # Where C plays no variable, some C events lack the key: under cont
        # such a gap event is dropped, since it belongs to no partition.
        keyless = etype == "C" and "C" not in pattern and data.draw(st.booleans())
        events.append(
            _ev(
                t,
                etype,
                v=data.draw(st.integers(0, 4)),
                g=None if keyless else data.draw(st.sampled_from((1, 2))),
            )
        )
    emit_empty = data.draw(st.booleans())
    got = list(WindowManager(query, emit_empty=emit_empty).run(events))
    want = list(oracle_rows(query, events, emit_empty=emit_empty))
    assert row_tuples(got) == row_tuples(want)


def _values_agree(got, want):
    """Counts and MIN/MAX exactly, float sums and averages within rel 1e-9."""
    if isinstance(got, float) or isinstance(want, float):
        return math.isclose(got, want, rel_tol=1e-9)
    return got == want


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_windowed_rows_match_the_fine_plan(data):
    """The coarse plan against the finest one, which keeps every event
    individually: the same rows, with floats within rel 1e-9 since the two
    plans merge in different orders, and never more state. Windows hold up
    to hundreds of events, far past what the enumerating oracle can
    follow."""
    semantics, pattern, where, returns = data.draw(st.sampled_from(_WINDOWED_FAMILIES))
    grouped = data.draw(st.booleans())
    slide = data.draw(st.sampled_from((2000, 5000)))
    within = slide * data.draw(st.integers(1, 4)) + data.draw(st.sampled_from((0, 500)))
    query = make_query(
        pattern=pattern,
        semantics=semantics,
        where=where,
        returns=returns,
        group_by="g" if grouped else None,
        within=f"{within} ms",
        slide=f"{slide} ms",
        schema=FLOAT_SCHEMA,
    )
    n = data.draw(st.integers(0, 400))
    steps = data.draw(
        st.lists(
            st.tuples(
                st.sampled_from((0, 10, 50)),  # 0: a tie
                st.sampled_from("AABBC"),
                st.sampled_from((0.0, 0.5, 1.25, 2.0, 3.75)),
                st.sampled_from((1, 2)),
            ),
            min_size=n,
            max_size=n,
        )
    )
    events, t = [], 0
    for gap, etype, v, g in steps:
        t += gap
        events.append(_ev(t, etype, v=v, g=g))
    emit_empty = data.draw(st.booleans())
    coarse = WindowManager(query, emit_empty=emit_empty)
    fine = fine_manager(query, emit_empty=emit_empty)
    got = list(coarse.run(events))
    want = list(fine.run(events))
    assert [(r.wid, r.key) for r in got] == [(r.wid, r.key) for r in want]
    for g, w in zip(got, want):
        assert g.values.keys() == w.values.keys()
        assert all(_values_agree(g.values[a], w.values[a]) for a in g.values), (g, w)
    assert coarse.peak_entries <= fine.peak_entries


def test_the_fine_plan_follows_past_the_oracle():
    # 400 A events over 40 s finish 2^400 - 1 trends of A+ in window 0 and
    # 2^200 - 1 in window 1, which holds the last 200: far past
    # enumeration, and exact in both plans.
    query = make_query(
        pattern="A+", returns="COUNT(*), SUM(A.v), MAX(A.v)",
        within="60 s", slide="20 s", schema=FLOAT_SCHEMA,
    )
    events = [_ev(100 * i, "A", v=(i % 7) / 4) for i in range(400)]
    coarse = WindowManager(query)
    got = list(coarse.run(events))
    fine = fine_manager(query)
    want = list(fine.run(events))
    assert [r.values["COUNT(*)"] for r in got] == [2**400 - 1, 2**200 - 1]
    assert [(r.wid, r.key) for r in got] == [(r.wid, r.key) for r in want]
    for g, w in zip(got, want):
        assert all(_values_agree(g.values[a], w.values[a]) for a in g.values)
    assert coarse.peak_entries < fine.peak_entries


def _recount(kernel):
    """A kernel's entries counted from its state: each type cell and shadow
    once per open window it reaches, each kept event once per open window
    that holds it."""
    k = kernel.plan.k
    vectors = [*kernel.type_cells.values(), *kernel._shadow.values()]
    cells = sum(max(0, len(v) // k - kernel._stale) for v in vectors)
    held = sum(max(0, f + len(c) // k - kernel.base) for _, _, f, c in kernel.events)
    return cells + held


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_closed_windows_are_trimmed_at_the_next_step(data):
    """Keys left idle across several closes keep their closed windows until
    their next step; the entry count stays logical all along, each kernel
    keeps its own count current, and only the kernels that stepped at the
    current timestamp hold a shadow."""
    semantics, pattern, where, returns = data.draw(st.sampled_from(_WINDOWED_FAMILIES))
    slide = data.draw(st.sampled_from((1000, 1500)))
    within = slide * data.draw(st.integers(2, 5)) + data.draw(st.sampled_from((0, 500)))
    query = make_query(
        pattern=pattern,
        semantics=semantics,
        where=where,
        returns=returns,
        group_by="g",
        within=f"{within} ms",
        slide=f"{slide} ms",
        schema=GROUPED_SCHEMA,
    )
    events, t = [], 0
    for _ in range(data.draw(st.integers(1, 24))):
        t += data.draw(st.sampled_from((0, 500, 1000, 2500)))
        events.append(
            _ev(
                t,
                data.draw(st.sampled_from("AABBC")),
                v=data.draw(st.integers(0, 4)),
                g=data.draw(st.sampled_from((1, 1, 2, 3, 4))),
            )
        )
    emit_empty = data.draw(st.booleans())
    manager = WindowManager(query, emit_empty=emit_empty)
    k = manager.compiled.k
    got = []
    for event in events:
        got += manager.ingest(event)
        kernels = [e.kernel for e in manager._engines.values()]
        counts = [_recount(kernel) for kernel in kernels]
        assert [kernel.entry_count for kernel in kernels] == counts
        assert manager.current_entries == sum(counts)
        for kernel in kernels:
            assert kernel.time in (None, event.time)
            if kernel.time is None:  # its timestamp ended as the stream moved on
                assert not kernel._shadow
        routed = route(event, manager._probe, manager._partition_attrs, manager._cont)
        if routed is None or routed[1] not in manager._engines:
            continue
        kernel = manager._engines[routed[1]].kernel  # it just stepped: nothing stale
        assert kernel._stale == 0
        # A type cell or shadow reaches from the oldest open window to at
        # most the newest; past its end it reads as the identity.
        assert all(0 < len(v) <= kernel.width * k for v in kernel.type_cells.values())
        assert all(len(v) <= kernel.width * k for v in kernel._shadow.values())
        if kernel.final_acc is not None:
            assert len(kernel.final_acc) == kernel.width * k
        held = [f + len(c) // k - kernel.base for _, _, f, c in kernel.events]
        assert all(n > 0 for n in held)  # no kept event outlived its windows
        assert kernel.roles == [r for _, r, _, _ in kernel.events]
        assert {len(c) for c in kernel.columns.values()} <= {len(kernel.events)}
    got += manager.finish()
    assert manager.current_entries == 0
    want = oracle_rows(query, events, emit_empty=emit_empty)
    assert row_tuples(got) == row_tuples(want)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("where", [None, "A.v < NEXT(A).v"], ids=["type", "mixed"])
def test_snapshot_after_a_close_reads_the_new_oldest_window(where, data):
    """Between a close and the key's next step the closed windows still
    lead the kernel's vectors; its snapshot then reads the new oldest
    window as a one-window engine fed that window's events does."""
    semantics = data.draw(st.sampled_from(("any", "next", "cont")))
    within = 1000 * data.draw(st.integers(2, 4)) + data.draw(st.sampled_from((0, 500)))
    query = make_query(
        pattern="(SEQ(A+, B))+",
        semantics=semantics,
        where=where,
        within=f"{within} ms",
        slide="1000 ms",
    )
    manager = WindowManager(query)
    spec = manager.spec
    events, t = [], 0
    for _ in range(data.draw(st.integers(1, 24))):
        t += data.draw(st.sampled_from((0, 500, 1000)))
        event = _ev(t, data.draw(st.sampled_from("AABC")), v=data.draw(st.integers(0, 3)))
        manager.close_expired(t)
        engine = manager._engines.get(())
        if engine is not None and engine.kernel._stale:
            wid = manager._first_wid
            start, end = spec.start_of(wid), spec.end_of(wid)
            reference = Engine(query).run(e for e in events if start <= e.time < end)
            reference.kernel.end_timestamp()
            got, want = engine.kernel.snapshot(), reference.kernel.snapshot()
            assert got.final == want.final
            assert got.counts == want.counts
            assert got.stored == want.stored
        manager.ingest(event)
        events.append(event)


def test_gap_before_a_key_opens_counts_in_its_timestamp():
    """Under contiguous semantics a gap event that reaches a key before
    the key holds a window still shares its timestamp with the event that
    opens one: the timestamp held two events, so only the trends they
    start stay readable, as in a one-window engine fed both."""
    query = make_query(
        pattern="(SEQ(A+, B))+", semantics="cont", within="2000 ms", slide="1000 ms"
    )
    manager = WindowManager(query)
    for event in (_ev(1000, "C"), _ev(1000, "B")):
        manager.ingest(event)
    manager.close_expired(2000)
    kernel = manager._engines[()].kernel
    reference = Engine(query).run([_ev(1000, "C"), _ev(1000, "B")])
    reference.kernel.end_timestamp()
    assert kernel.snapshot().counts == reference.kernel.snapshot().counts == {}
    assert manager.current_entries == kernel.entry_count == 0
