"""The generated kernel step (``kernels.compile_step``) against the
interpreted one in ``kernel_reference``. Both kernels share one compiled
query and are driven with the same steps, each of one timestamp's events,
and window closes; after each, their results, exceptions and state must
agree, each kept event's end must be the one its cells give, the dead
kept events must be those that the reference's walk finds, and the entry
count must be the one that the state gives."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trendagg import Engine, Event, Schema
from trendagg.errors import AggregateOverflow, MissingAttribute
from trendagg.kernels import MixedKernel, compile_query

from conftest import make_query
from kernel_reference import ReferenceKernel, recount

# Pattern -> adjacency predicates that may go with it, and its event types.
_PATTERNS = {
    "A+": (["A.v < NEXT(A).v"], "AB"),
    "SEQ(A, B)": (["A.v <= B.v"], "ABC"),
    "SEQ(A+, B)": (["A.v < NEXT(A).v", "A.v >= B.v", "A.v < NEXT(A).v AND A.v >= B.v"], "AB"),
    # B reads its own cells and kept A events alike.
    "SEQ(A+, B+)": (["A.v < B.v"], "AB"),
    "(SEQ(A+, B))+": (["B.v < A.v"], "ABC"),
    "SEQ(A, B+, C)": (["B.v > NEXT(B).v"], "ABC"),
    "SEQ(A+, B, C+)": (["B.v != C.v", "C.v = NEXT(C).v"], "ABC"),
    "SEQ(A X+, A Y)": (["X.v < NEXT(X).v"], "AB"),
}
_VARIABLES = {"SEQ(A X+, A Y)": "XY"}
_AGGREGATES = ("SUM({}.v)", "MIN({}.v)", "MAX({}.v)", "COUNT({})", "AVG({}.v)")
# Start events of ``A+`` under skip-till-any-match: each doubles the trend
# count, so that a float sum overflows after about a thousand of them.
_PUMP = 1030


@st.composite
def _queries(draw, pump):
    """A query, its event-grained variables (``None`` for the coarsest
    plan) and the event types to draw. A query for a pump runs ``A+``
    start events on a type-grained ``A`` under skip-till-any-match and
    sums ``A.v``."""
    starts = ("A+", "SEQ(A+", "(SEQ(A+") if pump else ("",)
    pattern = draw(st.sampled_from(sorted(p for p in _PATTERNS if p.startswith(starts))))
    wheres, types = _PATTERNS[pattern]
    variables = _VARIABLES.get(pattern, "".join(sorted(set(pattern) & set("ABC"))))
    where = None if pump or draw(st.integers(0, 3)) == 0 else draw(st.sampled_from(wheres))
    if draw(st.booleans()):
        local = f"{variables[0]}.v > 1"
        where = local if where is None else f"{where} AND {local}"
    returns = ["COUNT(*)"] + [
        draw(st.sampled_from(_AGGREGATES)).format(draw(st.sampled_from(variables)))
        for _ in range(draw(st.integers(0, 3)))
    ]
    if pump:
        returns.append("SUM(A.v)")
    semantics = "any" if pump else draw(st.sampled_from(("any", "next", "cont")))
    query = make_query(
        pattern=pattern, semantics=semantics, where=where, returns=", ".join(returns)
    )
    fine = not pump and draw(st.integers(0, 2)) == 0  # every variable event-grained
    return query, frozenset(query.template.types) if fine else None, types


@st.composite
def _ops(draw, types, floats, time):
    """Steps of one to three tied events (gap events of contiguous
    semantics among them, since any type may match nothing), each at a
    later time than the one before, and window closes."""
    ops = []
    for _ in range(draw(st.integers(0, 20))):
        if draw(st.integers(0, 3)) == 0:
            ops.append(("close",))
            continue
        time += 1000 * draw(st.integers(1, 2))
        tied = []
        for _ in range(draw(st.sampled_from((1, 1, 2, 3)))):
            value = draw(st.integers(0, 5))
            attrs = (
                {}
                if draw(st.integers(0, 7)) == 0
                else {"v": value + 0.5 if floats else value}
            )
            tied.append((draw(st.sampled_from(types)), attrs))
        ops.append(("step", time, tied, draw(st.integers(1, 4))))
    return ops


def _state(kernel):
    return repr(
        (
            kernel.type_cells,
            kernel.events,
            kernel.final_acc,
            kernel.width,
            kernel.final_cell(),
        )
    )


def _apply(kernel, op, probe, cont):
    """Returns what the op returned, or the exception's type and text, and
    whether the run goes on."""
    try:
        if op[0] == "step":
            _, time, tied, width = op
            group = [(probe(Event(time, etype, attrs)), attrs) for etype, attrs in tied]
            if not cont:  # the manager drops what matches nothing
                group = [(roles, attrs) for roles, attrs in group if roles]
            if not group:
                return None, True
            if not any(roles for roles, _ in group):  # gaps reach no new window
                width = 0
            return kernel.step(time, group, width), True
        return (kernel.drop_front() if kernel.width > 1 else None), True
    except (MissingAttribute, AggregateOverflow) as exc:
        return (type(exc).__name__, str(exc)), False


def _drive(compiled, ops):
    """Drive both kernels; returns the exception that ended the run, if
    any."""
    kernels = MixedKernel(compiled), ReferenceKernel(compiled)
    for op in ops:
        (got, going), (want, _) = (
            _apply(k, op, compiled.probe, compiled.cont) for k in kernels
        )
        assert repr(got) == repr(want), op
        generated, reference = kernels
        assert generated.snapshot() == reference.snapshot()
        assert generated.entry_count == reference.entry_count
        assert generated.pred_accesses == reference.pred_accesses
        assert _state(generated) == _state(reference)
        assert generated._dead == reference._dead
        k = compiled.k
        for kernel in kernels:
            assert kernel.ends == [f + len(c) // k for _, _, f, c in kernel.events]
            assert kernel.entry_count == recount(kernel)
        if not going:
            return got
    return None


def _pump():
    return [("step", 1000 * t, [("A", {"v": 1.5})], 1 + t % 2) for t in range(1, _PUMP)]


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_generated_step_matches_the_interpreted_one(data):
    pump = data.draw(st.integers(0, 9)) == 0
    query, event_grained, types = data.draw(_queries(pump))
    compiled = compile_query(query, event_grained)
    floats = pump or data.draw(st.booleans())
    ops = _pump() if pump else []
    ops += data.draw(_ops(types, floats, 1000 * _PUMP))
    _drive(compiled, ops)


def test_a_float_sum_past_the_range_fails_alike():
    failed = _drive(compile_query(make_query(pattern="A+", returns="SUM(A.v)")), _pump())
    assert failed == ("AggregateOverflow", "the sum of A.v exceeds the float range: "
                      "int too large to convert to float")


@pytest.mark.parametrize("semantics", ["any", "next", "cont"])
@pytest.mark.parametrize("width", [1, 3])
def test_merging_kept_cells_leaves_the_variable_cells_alone(semantics, width):
    # B reads its own full-width cells and a kept A event: the kept cells
    # are merged into a copy, not into the cells that B still holds.
    query = make_query(pattern="SEQ(A+, B+)", where="A.v < B.v", semantics=semantics,
                       returns="COUNT(*), SUM(B.v), MAX(A.v)")
    ops = [("step", 1000, [("A", {"v": 0})], width), ("step", 2000, [("B", {"v": 3})], width),
           ("step", 3000, [("B", {"v": 4})], width), ("close",),
           ("step", 4000, [("A", {"v": 1})], width), ("step", 5000, [("B", {"v": 2})], width)]
    assert _drive(compile_query(query), ops) is None


@pytest.mark.parametrize("semantics", ["any", "next", "cont"])
@pytest.mark.parametrize("first, second", [(0.0, -0.0), (-0.0, 0.0)])
def test_a_tie_of_signed_zeros_keeps_the_older_min_and_max(semantics, first, second):
    # Two events at one timestamp each start a trend; merging the second
    # cell into the variable's cells, or into the finished trends, keeps
    # the older of two equal MIN and MAX values, as ``<=`` and ``>=`` do.
    query = make_query(pattern="A+", semantics=semantics,
                       returns="COUNT(*), MIN(A.v), MAX(A.v)",
                       schema=Schema({"A": {"v": "float"}}))
    for width in (1, 2):
        ops = [("step", 1000, [("A", {"v": first}), ("A", {"v": second})], width)]
        assert _drive(compile_query(query), ops) is None
    engine = Engine(query).run([Event(1000, "A", {"v": first}),
                                Event(1000, "A", {"v": second})])
    assert repr(engine.results()) == repr(
        {"COUNT(*)": 2, "MIN(A.v)": first, "MAX(A.v)": first}
    )


@pytest.mark.parametrize("width", [1, 2])
def test_an_overflow_comes_before_a_later_slots_missing_attribute(width):
    # The last event overflows the sum of A.v and lacks A.w, which only a
    # later slot reads: the slot that fails first names the error.
    query = make_query(pattern="A+", returns="SUM(A.v), SUM(A.w)",
                       schema=Schema({"A": {"v": "float", "w": "float"}}))
    ops = [("step", 1000 * t, [("A", {"v": 1, "w": 1})], width) for t in range(1, _PUMP)]
    ops.append(("step", 1000 * _PUMP, [("A", {"v": 1.5})], width))
    assert _drive(compile_query(query), ops) == (
        "AggregateOverflow",
        "the sum of A.v exceeds the float range: int too large to convert to float",
    )


@pytest.mark.parametrize("where", [None, "X.v < NEXT(X).v"])
@pytest.mark.parametrize("fine", [False, True])
def test_an_event_reads_as_every_variable_before_it_consumes(where, fine):
    # Under next each A event plays X and Y, and both read X's cells or
    # kept X events: the read as X must leave them for the read as Y. The
    # last timestamp holds two events, the second of which finds them
    # consumed.
    query = make_query(pattern="SEQ(A X+, A Y)", semantics="next", where=where,
                       returns="COUNT(*), SUM(X.v)")
    compiled = compile_query(query, frozenset(query.template.types) if fine else None)
    ops = [("step", 1000 * t, [("A", {"v": t})], 1 + t % 2) for t in (1, 2, 3)]
    ops.append(("step", 4000, [("A", {"v": 4}), ("A", {"v": 5})], 2))
    assert _drive(compiled, ops) is None
