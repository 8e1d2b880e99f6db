"""Acceptance gate: seven criteria, one printed verdict line each.

Each test prints ``criterion N (<name>): PASS|FAIL`` on the terminal even
under pytest's capture, then asserts the details. The criteria pin the
worked 8-event example, step-by-step state traces, large-scale oracle
equivalence, granularity planning, structural space bounds, scaling shape
and windowed correctness.
"""

import math
import random
import time
from contextlib import contextmanager
from itertools import groupby
from operator import attrgetter

import pytest

from trendagg import (
    Engine,
    Event,
    Schema,
    WindowManager,
    WindowSpec,
    classify_and_plan,
    parse_query,
    windows_of,
)
from trendagg.events import TRANSPORT_SCHEMA, generate_transport_stream
from trendagg.oracle import aggregate_trends, enumerate_trends
from trendagg.query import RoleProbe

from conftest import SHOWCASE, make_query


@contextmanager
def verdict(capsys, label):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"{label}: FAIL")
        raise
    else:
        with capsys.disabled():
            print(f"{label}: PASS")


@pytest.fixture(scope="module")
def transport_runs():
    """Timed windowed runs of the reference workload at three scales.

    20 passengers, one Trip per passenger per 30 s, tumbling 600 s windows
    grouped by passenger: every window holds ~400 events spread over all
    20 keys, so live state is 20 engines of one cell each, no matter how
    long the stream is, or how many keys share one timestamp. Each run also
    records the most keys that share one timestamp.
    """
    query = parse_query(
        "RETURN COUNT(*) PATTERN Trip T+ SEMANTICS any "
        "GROUP-BY passenger WITHIN 600 s",
        TRANSPORT_SCHEMA,
    )
    runs = {}
    for target in (10_000, 100_000, 1_000_000):
        events = list(
            generate_transport_stream(
                passengers=20, stations=10, duration=target * 30 // 20, seed=7
            )
        )
        manager = WindowManager(query)
        started = time.perf_counter()
        for event in events:
            manager.ingest(event)
        manager.finish()
        elapsed = time.perf_counter() - started
        assert len(events) == target
        tied = max(
            len({e.attrs["passenger"] for e in batch})
            for _, batch in groupby(events, key=attrgetter("time"))
        )
        runs[target] = (elapsed, manager.peak_entries, tied)
    return runs


def test_criterion_1_worked_example(capsys):
    with verdict(capsys, "criterion 1 (worked-example exactness)"):
        started = time.perf_counter()
        got = {}
        for semantics in ("any", "next", "cont"):
            rows = list(WindowManager(make_query(semantics=semantics)).run(SHOWCASE))
            got[semantics] = rows[0].values["COUNT(*)"]
        rows = list(WindowManager(make_query(where="B.v < A.v")).run(SHOWCASE))
        got["mixed"] = rows[0].values["COUNT(*)"]
        elapsed = time.perf_counter() - started
        assert got == {"any": 43, "next": 8, "cont": 2, "mixed": 33}
        assert elapsed < 1.0


def test_criterion_2_state_traces(capsys):
    with verdict(capsys, "criterion 2 (intermediate-state traces)"):
        # Type-grained, skip-till-any-match.
        engine = Engine(make_query())
        counts = [
            (cells[0][1][0] if (cells := engine.step([e])) else None)
            for e in SHOWCASE
        ]
        assert counts == [1, 1, 3, 6, None, 10, 22, 32]
        assert counts[6] == 22  # a7
        snapshot = engine.kernel.snapshot()
        assert snapshot.counts.get("A", 0) == 32
        assert snapshot.counts.get("B", 0) == 43

        # Mixed granularity with B.v < A.v.
        engine = Engine(make_query(where="B.v < A.v"))
        counts = [
            (cells[0][1][0] if (cells := engine.step([e])) else None)
            for e in SHOWCASE
        ]
        assert counts[6] == 12  # a7 extends b2 but not b6
        assert engine.kernel.snapshot().final == 33

        # Skip-till-next-match.
        engine = Engine(make_query(semantics="next"))
        counts = [
            (cells[0][1][0] if (cells := engine.step([e])) else None)
            for e in SHOWCASE
        ]
        assert counts[6] == 4  # a7
        assert engine.kernel.snapshot().final == 8

        # Contiguous: c5 severs the open chains, so b6 extends none.
        engine = Engine(make_query(semantics="cont"))
        counts = [
            (cells[0][1][0] if (cells := engine.step([e])) else None)
            for e in SHOWCASE
        ]
        assert counts[4:7] == [None, 0, 1]  # c5, b6, a7
        assert engine.kernel.snapshot().final == 2


def _random_case_families():
    """(semantics, pattern, where, returns, reps) parse-once query pool;
    every stream may hold timestamp ties."""
    any_returns = [
        "COUNT(*)",
        "COUNT(*), COUNT(A), SUM(A.v)",
        "COUNT(*), MIN(A.v), MAX(A.v), AVG(A.v)",
    ]
    families = []
    for pattern in ("A+", "SEQ(A+, B)", "(SEQ(A+, B))+", "SEQ(A+, B, C+)"):
        for where in (None, "A.v > 1"):
            for returns in any_returns:
                families.append(("any", pattern, where, returns, 50))
    families.append(("any", "SEQ(A X+, A Y)", None, "COUNT(*), SUM(X.v), AVG(Y.v)", 50))
    for pattern, where in (
        ("(SEQ(A+, B))+", "B.v < A.v"),
        ("(SEQ(A+, B))+", "A.v <= B.v"),
        ("(SEQ(A+, B))+", "B.v < A.v AND A.v <= B.v"),
        ("A+", "A.v < NEXT(A).v"),
        ("SEQ(A+, B)", "A.v >= B.v AND A.v > 0"),
    ):
        families.append(("any", pattern, where, "COUNT(*), SUM(A.v), AVG(A.v)", 60))
    for pattern, where in (
        ("A+", None),
        ("SEQ(A, B)", None),
        ("SEQ(A+, B)", "A.v <= B.v"),
        ("(SEQ(A+, B))+", None),
        ("(SEQ(A+, B+))+", None),
        ("A+", "A.v < NEXT(A).v"),
    ):
        families.append(("next", pattern, where, "COUNT(*), SUM(A.v)", 40))
    for pattern, where in (
        ("A+", "A.v < NEXT(A).v"),
        ("SEQ(A, B)", None),
        ("(SEQ(A+, B))+", "B.v < A.v"),
        ("SEQ(A+, B, C+)", None),
    ):
        families.append(("cont", pattern, where, "COUNT(*), MAX(A.v), AVG(A.v)", 55))
    return families


def test_criterion_3_oracle_equivalence(capsys):
    with verdict(capsys, "criterion 3 (oracle equivalence, >=1000 cases)"):
        schema = Schema({t: {"v": "int"} for t in "ABCD"})
        rng = random.Random(2024)
        started = time.perf_counter()
        cases = 0
        for semantics, pattern, where, returns, reps in _random_case_families():
            query = make_query(
                pattern=pattern, semantics=semantics, where=where,
                returns=returns, schema=schema,
            )
            for _ in range(reps):
                n_types = rng.choice((2, 3, 4))
                alphabet = "ABCD"[:n_types]
                n = rng.randrange(0, 13)
                events, t = [], 0
                for _ in range(n):
                    t += rng.choice((0, 1, 1, 2))
                    events.append(
                        Event(t * 1000 + 1000, rng.choice(alphabet),
                              {"v": rng.randrange(0, 6)})
                    )
                expected = aggregate_trends(
                    enumerate_trends(events, query), query.aggregates
                )
                got = Engine(query).run(events).results()
                assert got.keys() == expected.keys()
                for name, want in expected.items():
                    if isinstance(want, float):
                        assert got[name] == pytest.approx(want, rel=1e-9), (
                            name, events)
                    else:
                        assert got[name] == want, (name, events)
                cases += 1
        elapsed = time.perf_counter() - started
        assert cases >= 1000
        assert elapsed < 60.0


def test_criterion_4_granularity_plan(capsys):
    with verdict(capsys, "criterion 4 (granularity-plan conformance)"):
        grid = [
            # semantics, pattern, where, event-grained set (empty: type granularity)
            ("any", "(SEQ(A+, B))+", None, set()),
            ("any", "(SEQ(A+, B))+", "A.v > 3", set()),
            ("any", "(SEQ(A+, B))+", "B.v < A.v", {"B"}),
            ("any", "(SEQ(A+, B))+", "A.v <= B.v", {"A"}),
            ("any", "(SEQ(A+, B))+", "B.v < A.v AND A.v <= B.v", {"A", "B"}),
            ("any", "A+", "A.v < NEXT(A).v", {"A"}),
            ("next", "(SEQ(A+, B))+", None, set()),
            ("next", "(SEQ(A+, B))+", "B.v < A.v", {"B"}),
            ("next", "A+", None, set()),
            ("cont", "(SEQ(A+, B))+", None, set()),
            ("cont", "(SEQ(A+, B))+", "A.v <= B.v", {"A"}),
            ("cont", "SEQ(A, B)", None, set()),
        ]
        for semantics, pattern, where, grained in grid:
            query = make_query(pattern=pattern, semantics=semantics, where=where)
            plan = classify_and_plan(query)
            assert plan == frozenset(grained), (semantics, pattern, where)


def test_criterion_5_space_bounds(capsys, transport_runs):
    with verdict(capsys, "criterion 5 (space bounds as invariants)"):
        # Type-grained: the README's bound of one cell per variable, key and
        # window, met exactly, with nothing kept for timestamp ties, at ten
        # thousand and at a million events.
        for target in (10_000, 1_000_000):
            _, peak, tied = transport_runs[target]
            assert peak == 20 * 1, (target, peak, tied)

        # Mixed: state tracks the event-grained (B) count only.
        def mixed_peak(n_a, n_b):
            query = make_query(where="B.v < A.v")
            kinds = []
            for _ in range(n_b):
                kinds.append("B")
                kinds.extend("A" * (n_a // n_b))
            kinds.extend("A" * (n_a % n_b))
            events = [
                Event(1000 * (i + 1), kind, {"v": i % 5})
                for i, kind in enumerate(kinds)
            ]
            engine = Engine(query)
            engine.run(events)
            # The first B, before any A, is on no trend and is not kept.
            assert len(engine.kernel.snapshot().stored) == n_b - 1
            return engine.peak_entries

        assert mixed_peak(500, 20) == mixed_peak(5000, 20) == 1 + 19
        assert mixed_peak(500, 40) == 1 + 39

        # Next and cont without adjacency predicates: type-grained, so the
        # peak does not grow with the stream.
        for semantics in ("next", "cont"):
            peaks = []
            for n in (400, 4000):
                engine = Engine(make_query(semantics=semantics))
                engine.run(
                    Event(1000 * (i + 1), SHOWCASE[i % 8].etype, SHOWCASE[i % 8].attrs)
                    for i in range(n)
                )
                peaks.append(engine.peak_entries)
            assert peaks[0] == peaks[1], semantics


def test_criterion_6_scaling_shape(capsys, transport_runs):
    with verdict(capsys, "criterion 6 (scaling shape)"):
        elapsed_small = transport_runs[100_000][0]
        elapsed_large = transport_runs[1_000_000][0]
        tenfold = elapsed_large / elapsed_small
        per_doubling = tenfold ** (1 / math.log2(10))
        assert 1.5 <= per_doubling <= 3.0, (tenfold, per_doubling)

        # Two-step gap: 19 relevant A's and one closing B give 2^19 - 1
        # trends; enumerate-then-aggregate must trail the incremental
        # engine by orders of magnitude even on 30 events.
        query = make_query(pattern="SEQ(A+, B)")
        kinds, a, c = [], 19, 10
        while a or c:
            if a:
                kinds.append("A")
                a -= 1
            if a:
                kinds.append("A")
                a -= 1
            if c:
                kinds.append("C")
                c -= 1
        events = [
            Event(1000 * (i + 1), kind, {"v": i}) for i, kind in enumerate(kinds)
        ]
        events.append(Event(30000, "B", {"v": 0}))
        assert len(events) == 30

        engine_time = min(
            _timed(lambda: Engine(query).run(events).results())
            for _ in range(5)
        )
        started = time.perf_counter()
        trends = enumerate_trends(events, query)
        values = aggregate_trends(trends, query.aggregates)
        oracle_time = time.perf_counter() - started

        assert values["COUNT(*)"] == 2**19 - 1
        engine = Engine(query).run(events)
        assert engine.kernel.snapshot().final == 2**19 - 1
        assert oracle_time / engine_time >= 100.0, (oracle_time, engine_time)


def _timed(fn):
    started = time.perf_counter()
    fn()
    return time.perf_counter() - started


def test_criterion_7_window_correctness(capsys):
    with verdict(capsys, "criterion 7 (windowed results vs per-slice oracle)"):
        schema = Schema({t: {"v": "int", "g": "int"} for t in ("A", "B", "C")})
        queries = [
            make_query(within="3 s", slide="1 s", group_by="g",
                       returns="COUNT(*), SUM(A.v)", schema=schema),
            make_query(within="3 s", slide="1 s", where="[g] AND B.v < A.v",
                       schema=schema),
            make_query(pattern="SEQ(A+, B)", semantics="next",
                       within="3 s", slide="1 s", schema=schema),
            make_query(semantics="cont", within="3 s", slide="1 s",
                       group_by="g", schema=schema),
        ]
        rng = random.Random(777)
        started = time.perf_counter()
        checked_rows = 0
        for query in queries:
            spec = WindowSpec(query.within_ms, query.slide_ms)
            attrs = query.partition_attrs
            matchable = RoleProbe(query)
            for _ in range(30):
                times = sorted(rng.sample(range(0, 12000), rng.randrange(0, 20)))
                events = [
                    Event(t, rng.choice("AABBC"),
                          {"v": rng.randrange(0, 4), "g": rng.choice((1, 2))})
                    for t in times
                ]

                def key_of(event):
                    return tuple(event.attrs[a] for a in attrs)

                def window_slice(wid, key):
                    return [
                        e for e in events
                        if wid in windows_of(e.time, spec) and key_of(e) == key
                    ]

                rows = list(WindowManager(query).run(events))
                candidates = {
                    (wid, key_of(e))
                    for e in events
                    if matchable(e)
                    for wid in windows_of(e.time, spec)
                }
                emitted = {(r.wid, r.key) for r in rows}
                assert emitted <= candidates
                for row in rows:
                    trends = enumerate_trends(
                        window_slice(row.wid, row.key), query
                    )
                    want = aggregate_trends(trends, query.aggregates)
                    assert row.values == want, (row, events)
                    checked_rows += 1
                for wid, key in candidates - emitted:
                    assert next(enumerate_trends(window_slice(wid, key), query), None) is None
        elapsed = time.perf_counter() - started
        assert checked_rows > 100
        assert elapsed < 30.0
