import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trendagg import AggKind, AggSpec, Engine, Event, MissingAttribute
from trendagg.cells import (
    ACC_COUNT,
    ACC_MAX,
    ACC_MIN,
    ACC_SUM,
    absorb_cells,
    build_accumulators,
    combine_cells,
    event_updates,
    finalize,
    identity_cell,
    merge_functions,
)
from trendagg.engines import compile_query
from trendagg.errors import AggregateOverflow

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
    merges = merge_functions(accs)
    a = _vector([2, 3, 10, 1, 7])
    b = _vector([1, 1, 4, 2, 5])
    merged = combine_cells(a, b, merges, False)
    assert merged[:K] == [3, 4, 14, 1, 7]
    ident = identity_cell(accs)
    assert combine_cells(a, ident, merges, False) == a
    assert combine_cells(ident, a, merges, False) == a
    assert combine_cells(merged, ident, merges, False) == merged


def test_absorb_start_event():
    accs, _ = build_accumulators(SPECS)
    pred = identity_cell(accs)
    cell = absorb_cells(pred, event_updates(accs, "A"), {"v": 6}, True, K)[:K]
    # one new trend; its one A-event contributes v=6 everywhere
    assert cell == [1, 1, 6, 6, 6]


def test_absorb_extends_predecessor_trends():
    accs, _ = build_accumulators(SPECS)
    pred = _vector([3, 2, 10, 4, 9])  # merged predecessor cell
    updates = event_updates(accs, "A")
    cell = absorb_cells(pred, updates, {"v": 6}, False, K)
    # 3 trends extended: +3 A-occurrences, +6*3 to the sum, lattice with 6
    assert cell[:K] == [3, 5, 28, 4, 9]
    as_start = absorb_cells(pred, updates, {"v": 6}, True, K)
    assert as_start[:K] == [4, 6, 34, 4, 9]


def test_absorb_other_variable_propagates_untouched():
    accs, _ = build_accumulators(SPECS)
    pred = _vector([3, 2, 10, 4, 9])
    cell = absorb_cells(pred, event_updates(accs, "B"), {"v": 100}, False, K)
    assert cell[:K] == [3, 2, 10, 4, 9]


def test_absorb_on_zero_trends_does_not_poison_min_max():
    # An end-variable event with no predecessors sits on zero trends; its
    # value must not leak into MIN/MAX (sums are self-guarded by the factor).
    accs, _ = build_accumulators(
        (AggSpec(AggKind.MIN, "B", "v"), AggSpec(AggKind.SUM, "B", "v"))
    )
    pred = identity_cell(accs)
    cell = absorb_cells(pred, event_updates(accs, "B"), {"v": -99}, False, 3)
    assert cell[:3] == [0, None, 0]


def test_absorb_missing_attribute():
    accs, _ = build_accumulators((AggSpec(AggKind.SUM, "A", "v"),))
    with pytest.raises(MissingAttribute):
        absorb_cells(identity_cell(accs), event_updates(accs, "A"), {}, True, 2)


def test_finalize_including_avg():
    accs, extractors = build_accumulators(SPECS)
    out = finalize([4, 2, 10, 3, 7], NAMES, extractors)
    assert out == {
        "COUNT(*)": 4,
        "COUNT(A)": 2,
        "SUM(A.v)": 10,
        "MIN(A.v)": 3,
        "MAX(A.v)": 7,
        "AVG(A.v)": 5.0,
    }
    empty = finalize(identity_cell(accs), NAMES, extractors)
    assert empty == {
        "COUNT(*)": 0,
        "COUNT(A)": 0,
        "SUM(A.v)": 0,
        "MIN(A.v)": None,
        "MAX(A.v)": None,
        "AVG(A.v)": None,
    }


def test_counts_are_arbitrary_precision():
    accs, _ = build_accumulators((AggSpec(AggKind.COUNT_STAR),))
    merges = merge_functions(accs)
    updates = event_updates(accs, "A")
    cells = identity_cell(accs)
    # 128 doublings of a start-variable cell: 2^128 dwarfs any fixed width
    for _ in range(128):
        absorbed = absorb_cells(cells, updates, {}, True, 1)
        cells = combine_cells(cells, absorbed, merges, True)
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
    """The width-1 scalar branch, the strided per-slot branch and, on the
    additive slots alone, the ``map(add)`` branch give the same cells."""
    accs, _ = build_accumulators(SPECS)
    merges = merge_functions(accs)
    one = combine_cells(_vector(a), _vector(b), merges, False)
    two = combine_cells(_vector(a, other_a), _vector(b, other_b), merges, False)
    assert one == two[:K]
    assert two[K:] == combine_cells(_vector(other_a), _vector(other_b), merges, False)
    additive = merges[:3]  # COUNT(*), COUNT(A) and SUM(A.v) merge with add
    x, y = _vector(a[:3], other_a[:3]), _vector(b[:3], other_b[:3])
    for n in (3, 6):  # one window, two windows
        by_slot = combine_cells(x[:n], y[:n], additive, False)
        assert combine_cells(x[:n], y[:n], additive, True) == by_slot
        assert by_slot[:3] == one[:3]

    updates = event_updates(accs, variable)
    try:
        two = absorb_cells(_vector(a, other_a), updates, attrs, is_start, K)
    except MissingAttribute:
        with pytest.raises(MissingAttribute):
            absorb_cells(_vector(a), updates, attrs, is_start, K)
        return
    one = absorb_cells(_vector(a), updates, attrs, is_start, K)
    assert one == two[:K]
    assert two[K:] == absorb_cells(_vector(other_a), updates, attrs, is_start, K)


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
    min/max identities, and by ``map(add)`` or slot by slot - gives every
    window the final cell of a one-window kernel fed that window's events."""
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
    if compiled.kplan.additive:  # the same plan, merged slot by slot
        plans.append(compiled._replace(kplan=compiled.kplan._replace(additive=False)))
    for plan in plans:
        engine = Engine(query, plan)
        finals = []
        for i, event in enumerate(stream):
            while engine.kernel.base * slide + length <= i:  # oldest window ended
                finals.append(engine.kernel.final_cell())
                engine.kernel.drop_front()
            width = i // slide - engine.kernel.base + 1
            engine.step_with_roles(event, compiled.probe(event), width)
        while engine.kernel.width:
            finals.append(engine.kernel.final_cell())
            engine.kernel.drop_front()
        assert finals == [Engine(query).run(w).kernel.final_cell() for w in windows]


def test_float_sum_over_a_count_beyond_the_float_range_names_the_aggregate():
    accs, extractors = build_accumulators((AggSpec(AggKind.AVG, "A", "v"),))
    updates = event_updates(accs, "A")
    for width in (1, 2):
        with pytest.raises(AggregateOverflow, match=r"^the sum of A\.v exceeds"):
            absorb_cells([2**1100, 0, 0] * width, updates, {"v": 0.5}, False, 3)
    with pytest.raises(AggregateOverflow, match=r"^AVG\(A\.v\) exceeds"):
        finalize([1, float("inf"), 2**1100], ("AVG(A.v)",), extractors)
