"""Sliding-window routing, partitioning and lifecycle."""

import dataclasses
import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trendagg import (
    TRANSPORT_SCHEMA,
    Engine,
    Event,
    ResultRow,
    Schema,
    WindowManager,
    WindowSpec,
    generate_transport_stream,
    parse_query,
    windows_of,
)
from trendagg.cli import oracle_rows
from trendagg.errors import (
    AggregateOverflow,
    MissingAttribute,
    MissingGroupAttribute,
    OutOfOrder,
)
from trendagg.kernels import MixedKernel
from trendagg.query import RoleProbe

from conftest import fine_manager, make_query, row_tuples
from kernel_reference import recount
from query_reference import matchable_variables

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
        manager._step_pending()  # as the stream moving past ``time`` would
        first = windows_of(time, spec)
        kernel = manager._engines[()].kernel
        assert (kernel.base, kernel.width) == (first[0], len(first))
        # A later event before the oldest window ends opens only the rest.
        later = time + data.draw(st.integers(0, spec.end_of(first[0]) - time - 1))
        manager.ingest(Event(later, "A", {"v": 1}))
        manager._step_pending()
        second = windows_of(later, spec)
        assert (kernel.base, kernel.width) == (first[0], len(second))


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

    @pytest.mark.parametrize("emit_empty", [False, True])
    @pytest.mark.parametrize("semantics", ["any", "next", "cont"])
    def test_closes_keep_the_keys_in_order_as_engines_come_and_go(
        self, semantics, emit_empty
    ):
        # Keys 1 and 4 open at 0 s. Key 4 goes idle past WITHIN, loses its
        # engine at the close of window 0 and returns at 6.5 s; key 2
        # first arrives at 3.5 s, between the closes of windows 0 and 1,
        # and sorts between the keys already open; key 3 first arrives
        # with key 4's return. ``finish`` closes windows 5 to 7.
        query = make_query(
            pattern="SEQ(A+, B)", semantics=semantics, where="A.v < NEXT(A).v",
            returns="COUNT(*), SUM(A.v)", group_by="g", within="3 s", slide="1 s",
            schema=GROUPED_SCHEMA,
        )
        stream = [
            (0, "A", 0, 1), (0, "A", 2, 4), (500, "A", 3, 4), (800, "B", 0, 4),
            (1000, "A", 1, 1), (1500, "B", 0, 1), (2000, "A", 2, 1), (3000, "A", 0, 1),
            (3500, "A", 1, 2), (4000, "B", 0, 1), (4000, "A", 2, 2),
            (4500, "B", 1, 2), "close 6000", (6500, "A", 1, 4), (6500, "A", 0, 3),
            (7000, "A", 2, 4), (7000, "B", 0, 3), (7500, "B", 0, 4), (7500, "A", 3, 1),
        ]
        manager = WindowManager(query, emit_empty=emit_empty)
        events, got, closed, held = [], [], [], []
        close_oldest = manager._close_oldest

        def close(rows):
            # Every key holds the closing window as its oldest.
            kernels = [e.kernel for e in manager._engines.values()]
            assert kernels and all(k.base == manager._first_wid for k in kernels)
            close_oldest(rows)

        manager._close_oldest = close

        def check(rows):
            got.extend(rows)
            closed.append(sorted({r.wid for r in rows}))
            held.append((4,) in manager._engines)
            kernels = [e.kernel for e in manager._engines.values()]
            assert manager.current_entries == sum(map(recount, kernels))
            assert manager._keys in (None, sorted(manager._engines))

        for item in stream:
            if isinstance(item, str):
                check(manager.close_expired(int(item.split()[1])))
                continue
            time, etype, v, g = item
            events.append(_ev(time, etype, v=v, g=g))
            check(manager.ingest(events[-1]))
        check(manager.finish())
        assert manager.current_entries == 0
        assert closed[-1] == [5, 6, 7]
        assert row_tuples(got) == row_tuples(oracle_rows(query, events, emit_empty=emit_empty))
        assert [(r.wid, r.key) for r in got] == sorted((r.wid, r.key) for r in got)
        assert [h for h, _ in itertools.groupby(held)] == [False, True, False, True, False]
        # Window 4 holds key 4's A at 6.5 s and no B.
        want = [0, 4, 5, 6, 7] if emit_empty else [0, 5, 6, 7]
        assert [r.wid for r in got if r.key == (4,)] == want

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
        assert (kernel._stale, kernel._dead) == (2, 1)  # 4.5 s is not stepped yet
        rows += manager.close_expired(4501)  # the stream is past 4.5 s
        assert (kernel._stale, kernel._dead) == (0, 0)
        assert [t for t, _, _ in kernel.snapshot().stored] == [2000, 4500]
        assert len(kernel.final_acc) == kernel.width * kernel.plan.k
        rows += manager.finish()
        assert row_tuples(rows) == row_tuples(oracle_rows(query, events))

    def test_closing_ahead_of_the_stream_ends_the_timestamp(self):
        # An explicit close past the last timestamp steps its events before
        # it closes their windows, and drops the key it empties.
        manager = WindowManager(make_query(pattern="A+", within="10 s"))
        manager.ingest(_ev(1000, "A"))
        manager.ingest(_ev(2000, "A"))
        assert [r.values for r in manager.close_expired(20000)] == [{"COUNT(*)": 3}]
        assert manager.current_entries == 0
        manager.ingest(_ev(20000, "A"))
        assert manager.current_entries == 0  # held while its timestamp lasts
        assert manager.close_expired(20001) == []
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
    ("next", "SEQ(A X+, A Y)", None, "COUNT(*), SUM(X.v), AVG(Y.v)"),
    ("next", "SEQ(A X+, A Y)", "X.v < NEXT(X).v", "COUNT(*), SUM(X.v), MIN(Y.v)"),
    ("next", "SEQ(A X+, A Y+)", "X.v <= Y.v", "COUNT(*), COUNT(X), MAX(Y.v)"),
    # Equality, inequality and >= adjacency checks.
    ("any", "A+", "A.v = NEXT(A).v", "COUNT(*), SUM(A.v), MIN(A.v)"),
    ("any", "(SEQ(A+, B))+", "B.v != A.v", "COUNT(*), SUM(B.v), MAX(A.v)"),
    ("any", "SEQ(A+, B+)", "A.v >= B.v AND B.v = NEXT(B).v", "COUNT(*), SUM(B.v), MIN(A.v)"),
    ("cont", "A+", "A.v = NEXT(A).v", "COUNT(*), SUM(A.v), AVG(A.v)"),
    ("cont", "SEQ(A+, B+)", "A.v >= B.v AND B.v = NEXT(B).v", "COUNT(*), SUM(A.v), MAX(B.v)"),
    ("next", "A+", "A.v = NEXT(A).v", "COUNT(*), SUM(A.v), MIN(A.v)"),
    ("next", "(SEQ(A+, B))+", "B.v != A.v", "COUNT(*), SUM(A.v), MIN(A.v)"),
    ("next", "SEQ(A X+, A Y)", "X.v = NEXT(X).v", "COUNT(*), SUM(X.v), MIN(Y.v)"),
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


def test_state_on_no_open_trend_is_dropped_in_both_plans():
    # B@6 s and C@7 s count trends only in window 0, through A@1 s. Once
    # it closes, their cells and stored events count no trend in an open
    # window; both plans drop them, and B@12 s and C@13 s, on no trend
    # either, are not stored. So the coarse plan holds no more state than
    # the fine one: were the B and C cells of window 1 kept, it would hold
    # 6 entries at A@14.5 s against the fine plan's 5.
    query = make_query(pattern="SEQ(A+, B, C+)", where="A.v > 0", within="10 s",
                       slide="5 s", schema=FLOAT_SCHEMA)
    events = [_ev(t, etype, v=1.0) for t, etype in (
        (1000, "A"), (6000, "B"), (7000, "C"), (12000, "B"), (13000, "C"),
        (14000, "A"), (14500, "A"),
    )]
    want = row_tuples(oracle_rows(query, events))
    for manager in (WindowManager(query), fine_manager(query)):
        rows = [row for event in events[:5] for row in manager.ingest(event)]
        assert manager.current_entries == 0  # B@12 s stepped, C@13 s held
        rows += [row for event in events[5:] for row in manager.ingest(event)]
        assert row_tuples(rows + manager.finish()) == want
        assert manager.peak_entries == 5


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


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_closed_windows_are_trimmed_at_the_next_step(data):
    """Keys left idle across several closes keep their closed windows until
    their next step; the entry count stays logical all along, and each
    kernel keeps its own count current. A timestamp's events are held
    until the stream moves past it, and each key's are stepped at once."""
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

    def step_held():
        """Step the held timestamp, as ``ingest`` would first do, and check
        the kernels that stepped: nothing stale, vectors within bounds."""
        stepped = list(manager._pending)
        manager._step_pending()
        assert not manager._pending
        for key in stepped:
            engine = manager._engines.get(key)
            if engine is None:  # a gap alone, for a key with no window
                continue
            kernel = engine.kernel
            assert kernel._stale == 0
            # A type cell reaches from the oldest open window to at most
            # the newest; past its end it reads as the identity.
            assert all(0 < len(v) <= kernel.width * k for v in kernel.type_cells.values())
            if kernel.final_acc is not None:
                assert len(kernel.final_acc) == kernel.width * k
            held = [f + len(c) // k - kernel.base for _, _, f, c in kernel.events]
            assert all(n > 0 for n in held)  # no kept event outlived its windows
            assert kernel.roles == [r for _, r, _, _ in kernel.events]
            assert {len(c) for c in kernel.columns.values()} <= {len(kernel.events)}

    for event in events:
        if event.time != manager._last_time:
            step_held()
        got += manager.ingest(event)
        kernels = [e.kernel for e in manager._engines.values()]
        counts = [recount(kernel) for kernel in kernels]
        assert [kernel.entry_count for kernel in kernels] == counts
        assert manager.current_entries == sum(counts)
        # The oldest open window is the least kernel base, and the next
        # close is due at its end.
        if kernels:
            assert manager._first_wid == min(kernel.base for kernel in kernels)
            assert manager._min_end == manager.spec.end_of(manager._first_wid)
        else:
            assert manager._min_end == float("inf")
    step_held()
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
            # The events at ``t`` are held, not stepped, until the stream
            # moves past ``t``.
            reference = Engine(query).run(
                e for e in events if start <= e.time < min(end, t)
            )
            got, want = engine.kernel.snapshot(), reference.kernel.snapshot()
            assert got.final == want.final
            # A cell that counts no trend in a window is the identity there,
            # as no cell is. Under any, a variable on no trend in every
            # window holds no cell, while a key's vector may hold a zero in
            # some of its windows.
            def trends(counts):
                return {r: n for r, n in counts.items() if n}

            assert trends(got.counts) == trends(want.counts)
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
    assert kernel.snapshot().counts == reference.kernel.snapshot().counts == {}
    assert manager.current_entries == kernel.entry_count == 0


@pytest.mark.parametrize("semantics", ["any", "next"])
def test_traced_entry_points_stay_in_the_path(monkeypatch, semantics):
    """``e2ebench/tracing.py`` wraps ``RoleProbe.__call__``,
    ``Engine.step_with_roles`` and ``MixedKernel.step`` by name, and counts
    matched events and steps from their calls. Over a sliding stream with a
    local filter, the probe runs once per ingested event, and each step
    callable once per routed step: here, once per matched event."""
    calls = {}

    def count(owner, name):
        original = owner.__dict__[name]
        calls[owner.__name__] = []

        def wrapper(*args):
            result = original(*args)
            calls[owner.__name__].append(result)
            return result

        monkeypatch.setattr(owner, name, wrapper)

    count(RoleProbe, "__call__")
    count(Engine, "step_with_roles")
    count(MixedKernel, "step")
    query = parse_query(
        "RETURN passenger, COUNT(*), MIN(T.wait), SUM(T.wait) PATTERN Trip T+ "
        f"SEMANTICS {semantics} WHERE T.wait > 10 GROUP-BY passenger "
        "WITHIN 120 s SLIDE 40 s",
        TRANSPORT_SCHEMA,
    )
    events = generate_transport_stream(4, 3, 600, 7)
    manager = WindowManager(query)
    list(manager.run(events))
    matched = sum(1 for e in events if matchable_variables(query, e))
    assert 0 < matched < len(events)
    assert len(calls["RoleProbe"]) == manager.events_ingested == len(events)
    assert sum(1 for roles in calls["RoleProbe"] if roles) == matched
    assert len(calls["Engine"]) == len(calls["MixedKernel"]) == matched


class TestHeldTimestamp:
    """What a library caller sees while the manager holds the events of the
    current timestamp: they are stepped, key by key, only once the stream
    moves past it."""

    VW_SCHEMA = Schema({"A": {"v": "float", "w": "float", "g": "int"}})

    @pytest.mark.parametrize("then", ["ingest", "close_expired", "finish"])
    def test_a_missing_attribute_surfaces_once_the_stream_moves_on(self, then):
        query = make_query(pattern="A+", returns="COUNT(*), SUM(A.v)", schema=FLOAT_SCHEMA)
        manager = WindowManager(query)
        assert manager.ingest(Event(1000, "A", {})) == []  # lacks v: held
        assert manager.ingest(Event(1000, "A", {"v": 1.0})) == []  # a tie: held too
        with pytest.raises(MissingAttribute, match=r"A\.v"):
            if then == "ingest":
                manager.ingest(Event(2000, "A", {"v": 2.0}))
            elif then == "close_expired":
                manager.close_expired(1001)
            else:
                manager.finish()

    def test_an_overflow_surfaces_at_the_next_later_ingest(self):
        # Each A doubles the trend count; at about 2^1024 trends the float
        # sum of A.v overflows. The event that overflows fails when the
        # event after it arrives.
        query = make_query(pattern="A+", returns="SUM(A.v)", within="2000 s",
                           schema=FLOAT_SCHEMA)
        events = [Event(1000 * t, "A", {"v": 1.5}) for t in range(1, 1100)]
        manager = WindowManager(query, emit_empty=True)
        with pytest.raises(AggregateOverflow):
            for event in events:
                manager.ingest(event)
        failed = manager.events_ingested  # the events fed before the raise
        Engine(query).run(events[: failed - 1])
        with pytest.raises(AggregateOverflow):
            Engine(query).run(events[:failed])

    @pytest.mark.parametrize(
        "now, then, closed, left", [(1500, 1000, [], [1]), (20000, 5000, [1], [])]
    )
    def test_close_expired_moves_the_stream_to_its_time(self, now, then, closed, left):
        # After ``close_expired(now)`` an event before ``now`` is out of
        # order. Unchecked, A@1 s after a close at 1.5 s made a tie with
        # the held A@1 s (a count of 3 for two events), and A@5 s after a
        # close at 20 s emitted window 0 a second time.
        query = make_query(pattern="A+", within="10 s", schema=FLOAT_SCHEMA)
        manager = WindowManager(query)
        manager.ingest(_ev(1000, "A"))
        assert [r.values["COUNT(*)"] for r in manager.close_expired(now)] == closed
        with pytest.raises(
            OutOfOrder, match=rf"^row 2: time went backwards \({then} ms after {now} ms\)$"
        ):
            manager.ingest(_ev(then, "A"))
        assert [r.values["COUNT(*)"] for r in manager.finish()] == left

    def test_errors_come_one_key_group_at_a_time(self):
        # Key 2's event lacks v and arrives before key 1's second event,
        # which lacks w. Key 1 arrived first at this time, so its events
        # are stepped first, and its error is the one raised.
        query = make_query(pattern="A+", returns="g, SUM(A.v), SUM(A.w)",
                           group_by="g", schema=self.VW_SCHEMA)
        manager = WindowManager(query)
        for attrs in ({"v": 1.0, "w": 1.0, "g": 1}, {"w": 1.0, "g": 2},
                      {"v": 1.0, "g": 1}):
            manager.ingest(Event(1000, "A", attrs))
        with pytest.raises(MissingAttribute, match=r"A\.w"):
            manager.finish()

    def test_state_read_after_an_ingest_leaves_out_its_timestamp(self):
        query = make_query(pattern="A+", schema=FLOAT_SCHEMA)
        manager = WindowManager(query)
        manager.ingest(Event(1000, "A", {"v": 1.0}))
        assert (manager.current_entries, manager._engines) == (0, {})
        manager.ingest(Event(2000, "A", {"v": 1.0}))
        kernel = manager._engines[()].kernel
        assert manager.current_entries == 1
        assert kernel.snapshot() == (1, {"A": 1}, [], 1)  # a1 only
        manager.ingest(Event(2000, "A", {"v": 1.0}))
        assert kernel.snapshot() == (1, {"A": 1}, [], 1)
        assert [r.values for r in manager.finish()] == [{"COUNT(*)": 5}]

    def test_entry_counts_stay_exact_through_a_step_that_raises(self):
        # Under next, A@3 s consumes A's cells before the tied B@3 s, which
        # lacks v, raises. The manager's count still follows the kernel's:
        # it used to read 2 against the kernel's 1.
        query = make_query(pattern="SEQ(A+, B+)", semantics="next",
                           where="B.v < NEXT(B).v", within="10 s")
        manager = WindowManager(query)
        for time, etype, attrs in ((1000, "A", {}), (2000, "B", {"v": 1}),
                                   (2500, "A", {}), (3000, "A", {}), (3000, "B", {})):
            manager.ingest(Event(time, etype, attrs))
        with pytest.raises(MissingAttribute, match="attribute v"):
            manager.ingest(Event(4000, "A", {}))
        kernel = manager._engines[()].kernel
        assert manager.current_entries == kernel.entry_count == recount(kernel) == 1
        assert manager.peak_entries == 2

    def test_a_manager_that_failed_stays_failed(self):
        # Key 2's event at 1 s lacks v. Once its step has raised, a later
        # ingest and finish used to return, and finish dropped key 3's
        # event at 1 s: COUNT(*) 1 for key 3, with two events.
        query = make_query(pattern="A+", returns="g, COUNT(*), SUM(A.v)",
                           group_by="g", within="10 s", schema=FLOAT_SCHEMA)
        manager = WindowManager(query)
        for g in (1, 2, 3):
            manager.ingest(Event(1000, "A", {"g": g} if g == 2 else {"g": g, "v": 1.0}))
        with pytest.raises(MissingAttribute, match=r"A\.v") as failed:
            manager.ingest(Event(2000, "A", {"g": 1, "v": 1.0}))
        for later in (
            lambda: manager.ingest(Event(3000, "A", {"g": 3, "v": 5.0})),
            lambda: manager.ingest(Event(1000, "A", {"g": 3, "v": 5.0})),
            lambda: manager.close_expired(20000),
            manager.finish,
        ):
            with pytest.raises(MissingAttribute) as again:
                later()
            assert again.value is failed.value

    def test_a_read_out_that_raised_at_a_close_stays_raised(self):
        # Key 2's AVG of 10**400 leaves the float range at window 0's close,
        # after key 1 has closed it. Each retry used to close key 1's
        # window 0 again, trimming it on and on.
        schema = Schema({"A": {"v": "int", "g": "int"}})
        query = make_query(pattern="A+", returns="g, AVG(A.v)", group_by="g",
                           within="2 s", slide="1 s", schema=schema)
        manager = WindowManager(query)
        manager.ingest(Event(0, "A", {"g": 1, "v": 1}))
        manager.ingest(Event(0, "A", {"g": 2, "v": 10**400}))
        with pytest.raises(AggregateOverflow, match=r"AVG\(A\.v\)") as failed:
            manager.ingest(Event(2500, "A", {"g": 1, "v": 1}))
        state = [(k.base, k.width, k.entry_count) for k in
                 (e.kernel for e in manager._engines.values())]
        entries = manager.current_entries
        for later in (
            lambda: manager.ingest(Event(2500, "A", {"g": 1, "v": 1})),
            lambda: manager.close_expired(4000),
            manager.finish,
        ):
            with pytest.raises(AggregateOverflow) as again:
                later()
            assert again.value is failed.value
        assert [(k.base, k.width, k.entry_count) for k in
                (e.kernel for e in manager._engines.values())] == state
        assert manager.current_entries == entries

    def test_out_of_order_and_a_missing_key_leave_the_manager_usable(self):
        query = make_query(pattern="A+", group_by="g", within="10 s",
                           schema=FLOAT_SCHEMA)
        manager = WindowManager(query)
        manager.ingest(Event(2000, "A", {"g": 1}))
        with pytest.raises(OutOfOrder):
            manager.ingest(Event(1000, "A", {"g": 1}))
        with pytest.raises(MissingGroupAttribute):
            manager.ingest(Event(3000, "A", {}))
        manager.ingest(Event(3000, "A", {"g": 1}))
        assert [r.values for r in manager.finish()] == [{"COUNT(*)": 3}]


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_a_failed_manager_raises_on_every_later_call(data):
    """Drawn streams where one event in four lacks ``v``: once a call
    raises, every later ``ingest``, ``close_expired`` and ``finish``
    raises that same error, and the state no longer moves."""
    semantics, pattern, where, returns = data.draw(st.sampled_from(_WINDOWED_FAMILIES))
    within, slide = data.draw(_window_shapes())
    query = make_query(pattern=pattern, semantics=semantics, where=where,
                       returns=returns, group_by="g", within=f"{within} ms",
                       slide=f"{slide} ms", schema=GROUPED_SCHEMA)
    manager = WindowManager(query, emit_empty=data.draw(st.booleans()))
    calls, t = [], 0
    for _ in range(data.draw(st.integers(1, 14))):
        t += data.draw(st.sampled_from((0, 500, 1000, 1500)))
        attrs = {"g": data.draw(st.sampled_from((1, 2)))}
        if data.draw(st.integers(0, 3)):
            attrs["v"] = data.draw(st.integers(0, 4))
        event = Event(t, data.draw(st.sampled_from("AABBC")), attrs)
        calls.append(lambda event=event: manager.ingest(event))
        if data.draw(st.integers(0, 4)) == 0:
            calls.append(lambda now=t: manager.close_expired(now))
    calls += [manager.finish, lambda: manager.close_expired(t + 10**6), manager.finish]
    failed = None
    for call in calls:
        if failed is None:
            try:
                call()
            except (AggregateOverflow, MissingAttribute) as exc:
                failed = exc
                state = (manager.current_entries, manager._first_wid, {
                    key: engine.kernel.snapshot() for key, engine in manager._engines.items()
                })
            continue
        with pytest.raises(type(failed)) as again:
            call()
        assert again.value is failed
        assert state == (manager.current_entries, manager._first_wid, {
            key: engine.kernel.snapshot() for key, engine in manager._engines.items()
        })
