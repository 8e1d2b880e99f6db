import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trendagg import AggKind, AggSpec, Engine, Event, MissingAttribute
from trendagg.cells import (
    ACC_COUNT,
    ACC_MAX,
    ACC_MIN,
    ACC_SUM,
    build_accumulators,
    compile_cells,
    event_updates,
    identity_cell,
)
from trendagg.errors import AggregateOverflow
from trendagg.kernels import compile_query, compile_step
from trendagg.query import aggregate_names

from cells_reference import absorb_cells, finalize, merge_by_slot, merge_functions
from conftest import make_query

SPECS = (
    AggSpec(AggKind.COUNT_STAR),
    AggSpec(AggKind.COUNT, "A"),
    AggSpec(AggKind.SUM, "A", "v"),
    AggSpec(AggKind.MIN, "A", "v"),
    AggSpec(AggKind.MAX, "A", "v"),
    AggSpec(AggKind.AVG, "A", "v"),
)
NAMES = tuple(str(spec) for spec in SPECS)
K = 5  # slots per cell of SPECS


def _vector(*cells):
    """The flat cell vector holding ``cells``, one per window, oldest first."""
    return [value for cell in cells for value in cell]


def _code(specs=SPECS, start="A"):
    """The generated cell functions of ``specs`` over the variables A and B."""
    accs, extractors = build_accumulators(specs)
    names = tuple(str(spec) for spec in specs)
    return compile_cells(accs, extractors, names, ("A", "B"), start)


def _absorb(variable, is_start, specs=SPECS, one=False):
    """The generated absorb of ``variable``, as the start variable or not;
    with ``one``, its one-window lines (the ones the kernel step inlines)
    as a function of a one-window vector."""
    start = variable if is_start else "B" if variable == "A" else "A"
    code = _code(specs, start)
    if not one:
        return code.absorb[variable]
    k = len(build_accumulators(specs)[0]) + 1
    source = "\n".join(
        [
            "def absorb(pred, attrs):",
            *("    " + line for line in code.absorb_one[variable]),
            f"    return [{', '.join(f'c{s}' for s in range(k))}]",
        ]
    )
    namespace = {"AggregateOverflow": AggregateOverflow, "MissingAttribute": MissingAttribute}
    exec(source, namespace)
    return namespace["absorb"]


def test_accumulator_slots_are_shared():
    accs, extractors = build_accumulators(SPECS)
    # COUNT(*) lives in slot 0; AVG reuses the SUM and COUNT slots.
    assert accs == (
        (ACC_COUNT, "A", None),
        (ACC_SUM, "A", "v"),
        (ACC_MIN, "A", "v"),
        (ACC_MAX, "A", "v"),
    )
    assert extractors == (
        ("star", 0, 0),
        ("acc", 1, 0),
        ("acc", 2, 0),
        ("acc", 3, 0),
        ("acc", 4, 0),
        ("avg", 2, 1),
    )


def test_identity_cell_layout():
    accs, _ = build_accumulators(SPECS)
    assert identity_cell(accs) == [0, 0, 0, None, None]


def test_combine_adds_counts_and_merges_lattice():
    accs, _ = build_accumulators(SPECS)
    merge = _code().merge
    a = _vector([2, 3, 10, 1, 7])
    b = _vector([1, 1, 4, 2, 5])
    merged = merge(a, b)
    assert merged[:K] == [3, 4, 14, 1, 7]
    ident = identity_cell(accs)
    assert merge(a, ident) == a
    assert merge(ident, a) == a
    assert merge(merged, ident) == merged


def test_absorb_start_event():
    accs, _ = build_accumulators(SPECS)
    pred = identity_cell(accs)
    cell = _absorb("A", True)(pred, {"v": 6})[:K]
    # one new trend; its one A-event contributes v=6 everywhere
    assert cell == [1, 1, 6, 6, 6]


def test_absorb_extends_predecessor_trends():
    pred = _vector([3, 2, 10, 4, 9])  # merged predecessor cell
    cell = _absorb("A", False)(pred, {"v": 6})
    # 3 trends extended: +3 A-occurrences, +6*3 to the sum, lattice with 6
    assert cell[:K] == [3, 5, 28, 4, 9]
    as_start = _absorb("A", True)(pred, {"v": 6})
    assert as_start[:K] == [4, 6, 34, 4, 9]


def test_absorb_other_variable_propagates_untouched():
    pred = _vector([3, 2, 10, 4, 9])
    cell = _absorb("B", False)(pred, {"v": 100})
    assert cell[:K] == [3, 2, 10, 4, 9]


@pytest.mark.parametrize("old, new", [(math.nan, 6.0), (6.0, math.nan)], ids=["held", "new"])
@pytest.mark.parametrize("one", [False, True], ids=["vector", "one-window"])
def test_min_and_max_hold_a_nan_once_met(old, new, one):
    # A nan compares false either way: without a rule of its own, a held
    # nan would give way to the next value.
    cell = _absorb("A", False, one=one)(_vector([3, 2, 10, old, old]), {"v": new})
    assert repr(cell[3:K]) == "[nan, nan]"
    merge = _code().merge
    for a, b in ((old, new), (new, old)):
        merged = merge(_vector([1, 1, 1, a, a], [1, 1, 1, 1.0, 1.0]),
                       _vector([1, 1, 1, b, b]))
        assert repr(merged[3:K]) == "[nan, nan]"
        assert merged[K:] == [1, 1, 1, 1.0, 1.0]


def test_absorb_on_zero_trends_does_not_poison_min_max():
    # An end-variable event with no predecessors sits on zero trends; its
    # value must not leak into MIN/MAX (sums are self-guarded by the factor).
    specs = (AggSpec(AggKind.MIN, "B", "v"), AggSpec(AggKind.SUM, "B", "v"))
    accs, _ = build_accumulators(specs)
    pred = identity_cell(accs)
    cell = _absorb("B", False, specs)(pred, {"v": -99})
    assert cell[:3] == [0, None, 0]


def test_absorb_on_zero_trends_in_one_window_leaves_that_window_alone():
    # The B-event extends one trend in the second window and none in the
    # first: inf * 0 there would be nan, and 1.5 * 0 a float 0.0.
    absorb = _absorb("B", False, (AggSpec(AggKind.SUM, "B", "v"),))
    for v in (float("inf"), 1.5):
        assert repr(absorb([0, 0, 1, 0], {"v": v})) == repr([0, 0, 1, v])


def test_absorb_missing_attribute():
    specs = (AggSpec(AggKind.SUM, "A", "v"),)
    accs, _ = build_accumulators(specs)
    with pytest.raises(MissingAttribute):
        _absorb("A", True, specs)(identity_cell(accs), {})


def test_finalize_including_avg():
    accs, _ = build_accumulators(SPECS)
    readout = _code().readout
    out = readout([4, 2, 10, 3, 7])
    assert out == {
        "COUNT(*)": 4,
        "COUNT(A)": 2,
        "SUM(A.v)": 10,
        "MIN(A.v)": 3,
        "MAX(A.v)": 7,
        "AVG(A.v)": 5.0,
    }
    empty = readout(identity_cell(accs))
    assert empty == {
        "COUNT(*)": 0,
        "COUNT(A)": 0,
        "SUM(A.v)": 0,
        "MIN(A.v)": None,
        "MAX(A.v)": None,
        "AVG(A.v)": None,
    }


def test_counts_are_arbitrary_precision():
    specs = (AggSpec(AggKind.COUNT_STAR),)
    accs, _ = build_accumulators(specs)
    code = _code(specs)
    cells = identity_cell(accs)
    # 128 doublings of a start-variable cell: 2^128 dwarfs any fixed width
    for _ in range(128):
        absorbed = code.absorb["A"](cells, {})
        cells = code.merge(cells, absorbed)
    assert cells[0] == 2**128 - 1


_NUMBERS = st.one_of(
    st.integers(-5, 5), st.floats(-5, 5, allow_nan=False, allow_subnormal=False)
)


@st.composite
def _cells(draw):
    """A cell of SPECS: counts, a sum, and a min and a max that may be None."""
    return [
        draw(st.integers(0, 5)),
        draw(st.integers(0, 5)),
        draw(_NUMBERS),
        draw(st.one_of(st.none(), _NUMBERS)),
        draw(st.one_of(st.none(), _NUMBERS)),
    ]


@given(
    a=_cells(),
    b=_cells(),
    other_a=_cells(),
    other_b=_cells(),
    variable=st.sampled_from("AB"),
    attrs=st.one_of(st.just({}), st.fixed_dictionaries({"v": _NUMBERS})),
    is_start=st.booleans(),
)
def test_one_window_branch_matches_vector_path(
    a, b, other_a, other_b, variable, attrs, is_start
):
    """The generated merge of two windows gives, window by window, the
    cells it gives on each window alone, and so do, on the additive slots
    alone, ``map(add)`` and the slot-by-slot reference. The absorb of two
    windows fails exactly when the one-window lines that the kernel step
    inlines fail on one of them, and otherwise gives their cells: an event
    on no trends in a window reads no attribute there."""
    merge = _code().merge
    one = merge(_vector(a), _vector(b))
    two = merge(_vector(a, other_a), _vector(b, other_b))
    assert one == two[:K]
    assert two[K:] == merge(_vector(other_a), _vector(other_b))
    additive = SPECS[:3]  # COUNT(*), COUNT(A) and SUM(A.v) merge with add
    merges = merge_functions(build_accumulators(additive)[0])
    x, y = _vector(a[:3], other_a[:3]), _vector(b[:3], other_b[:3])
    for n in (3, 6):  # one window, two windows
        by_slot = merge_by_slot(x[:n], y[:n], merges)
        assert _code(additive).merge(x[:n], y[:n]) == by_slot
        assert by_slot[:3] == one[:3]

    absorb = _absorb(variable, is_start)
    absorb_one = _absorb(variable, is_start, one=True)
    try:
        cells = absorb_one(_vector(a), attrs) + absorb_one(_vector(other_a), attrs)
    except MissingAttribute:
        with pytest.raises(MissingAttribute):
            absorb(_vector(a, other_a), attrs)
        return
    assert absorb(_vector(a, other_a), attrs) == cells


_BIG = 2**1100  # a trend count no float can hold
_VALUES = st.one_of(
    st.integers(-5, 5),
    st.floats(-5, 5, allow_nan=False, allow_subnormal=False),
    st.sampled_from((0.5, -0.0, 1e308, -1e308, 10**400, math.nan)),
)
_COUNTS = st.one_of(st.integers(0, 3), st.just(_BIG))


@st.composite
def _aggregates(draw):
    """Variables (one to three, the start among them) and aggregates over
    them, duplicates allowed."""
    roles = draw(st.sampled_from(("A", "AB", "ABC")))
    variable = st.sampled_from(roles)
    spec = st.one_of(
        st.just(AggSpec(AggKind.COUNT_STAR)),
        st.builds(AggSpec, st.just(AggKind.COUNT), variable),
        st.builds(
            AggSpec,
            st.sampled_from((AggKind.SUM, AggKind.MIN, AggKind.MAX, AggKind.AVG)),
            variable,
            st.sampled_from("vw"),
        ),
    )
    return tuple(roles), draw(st.sampled_from(roles)), draw(st.lists(spec, min_size=1, max_size=6))


def _vectors(accs, width):
    """A cell vector of ``width`` windows over ``accs``: counts (zero
    included), int and float sums, and min and max that may be ``None``."""
    slot = {
        ACC_COUNT: _COUNTS,
        ACC_SUM: _VALUES,
        ACC_MIN: st.one_of(st.none(), _VALUES),
        ACC_MAX: st.one_of(st.none(), _VALUES),
    }
    cell = st.tuples(_COUNTS, *(slot[code] for code, _, _ in accs))
    return st.lists(cell, min_size=width, max_size=width).map(lambda c: _vector(*c))


def _outcome(fn, *args):
    """What ``fn(*args)`` returns, by ``repr``, or the type and message of
    what it raises."""
    try:
        return "returns", repr(fn(*args))
    except Exception as exc:  # noqa: BLE001 - compared, not handled
        return "raises", type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(
    aggregates=_aggregates(),
    width=st.integers(1, 4),
    other_width=st.integers(1, 4),
    data=st.data(),
)
def test_generated_functions_match_the_slot_by_slot_reference(
    aggregates, width, other_width, data
):
    """The generated ``absorb``, ``merge`` and ``readout`` return what the
    slot-by-slot interpreters return, bit for bit, or raise the same
    exception with the same message: ``MissingAttribute`` unless every
    count of a variable other than the start is zero, and
    ``AggregateOverflow`` naming the slot that overflows first, in the
    first window that fails. ``merge`` takes vectors of unequal length."""
    roles, start, specs = aggregates
    accs, extractors = build_accumulators(specs)
    names = tuple(str(spec) for spec in specs)
    code = compile_cells(accs, extractors, names, roles, start)
    k = len(accs) + 1
    pred = data.draw(_vectors(accs, width))
    attrs = data.draw(
        st.fixed_dictionaries({}, optional={"v": _VALUES, "w": _VALUES})
    )
    held = pred.copy()
    for r in roles:
        assert _outcome(code.absorb[r], pred, attrs) == _outcome(
            absorb_cells, pred, event_updates(accs, r), attrs, r == start, k
        )
    assert pred == held  # absorb returns new cells
    other = data.draw(_vectors(accs, other_width))
    assert _outcome(code.merge, pred, other) == _outcome(
        merge_by_slot, pred, other, merge_functions(accs)
    )
    assert _outcome(code.readout, pred[:k]) == _outcome(
        finalize, pred[:k], names, extractors
    )


_MERGE_FAMILIES = [
    ("A+", "A.v < NEXT(A).v", "COUNT(*), SUM(A.v), AVG(A.v)"),
    ("A+", "A.v < NEXT(A).v", "COUNT(*), SUM(A.v), MIN(A.v), MAX(A.v)"),
    ("SEQ(A+, B)", "A.v <= B.v", "COUNT(*), SUM(A.v), AVG(B.v)"),
    ("SEQ(A+, B)", "A.v <= B.v", "MIN(A.v), MAX(B.v), COUNT(B)"),
]


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_stored_predecessor_merges_match_one_window_kernels(data):
    """Merging kept events into a vector of open windows - with window
    offsets (a kept event that arrived before older windows closed), ``None``
    min/max identities, and by ``map(add)`` or the generated ``merge`` -
    gives every window the final cell of a one-window kernel fed that
    window's events."""
    pattern, where, returns = data.draw(st.sampled_from(_MERGE_FAMILIES))
    semantics = data.draw(st.sampled_from(("any", "next", "cont")))
    query = make_query(
        pattern=pattern, semantics=semantics, where=where, returns=returns
    )
    values = st.one_of(st.integers(-3, 3), st.sampled_from((0.1, 0.2, -0.7, 1e16)))
    stream = [
        Event(1000 * i, data.draw(st.sampled_from("AAB")), {"v": data.draw(values)})
        for i in range(data.draw(st.integers(1, 12)))
    ]
    length = data.draw(st.integers(1, 4))  # events per window
    slide = data.draw(st.integers(1, length))
    compiled = compile_query(query)
    windows = [
        stream[j * slide : j * slide + length] for j in range(-(-len(stream) // slide))
    ]
    plans = [compiled]
    if compiled.additive:  # the same plan, its step regenerated to merge
        merged = compiled._replace(additive=False)
        accs, extractors = build_accumulators(query.aggregates)
        roles = tuple(sorted(query.template.types))
        cells = compile_cells(
            accs, extractors, aggregate_names(query), roles, merged.start
        )
        step, source = compile_step(merged, cells)
        assert "merge(pred[:len(c)], c)" in source
        plans.append(merged._replace(step=step))
    for plan in plans:
        engine = Engine(query, plan)
        finals = []
        for i, event in enumerate(stream):
            while engine.kernel.base * slide + length <= i:  # oldest window ended
                finals.append(engine.kernel.final_cell())
                engine.kernel.drop_front()
            width = i // slide - engine.kernel.base + 1
            engine.step_with_roles(event.time, [(compiled.probe(event), event.attrs)], width)
        while engine.kernel.width:
            finals.append(engine.kernel.final_cell())
            engine.kernel.drop_front()
        assert finals == [Engine(query).run(w).kernel.final_cell() for w in windows]


def test_float_sum_over_a_count_beyond_the_float_range_names_the_aggregate():
    code = _code((AggSpec(AggKind.AVG, "A", "v"),), start="B")
    for width in (1, 2):
        with pytest.raises(AggregateOverflow, match=r"^the sum of A\.v exceeds"):
            code.absorb["A"]([2**1100, 0, 0] * width, {"v": 0.5})
    with pytest.raises(AggregateOverflow, match=r"^AVG\(A\.v\) exceeds"):
        code.readout([1, float("inf"), 2**1100])


def test_a_failing_event_raises_for_the_first_window_that_fails():
    # Window 0 lacks A.w; window 1's count overflows the sum of A.v first.
    specs = (AggSpec(AggKind.SUM, "A", "v"), AggSpec(AggKind.SUM, "A", "w"))
    absorb = _code(specs).absorb["A"]
    with pytest.raises(MissingAttribute, match=r"^aggregate needs A\.w"):
        absorb([0, 0, 0, 2**1100, 0, 0], {"v": 1.0})
