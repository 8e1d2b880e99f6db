import pytest
from hypothesis import given
from hypothesis import strategies as st

from trendagg import AggKind, AggSpec, MissingAttribute
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
    identity_cells,
    merge_functions,
    window_cell,
)

SPECS = (
    AggSpec(AggKind.COUNT_STAR),
    AggSpec(AggKind.COUNT, "A"),
    AggSpec(AggKind.SUM, "A", "v"),
    AggSpec(AggKind.MIN, "A", "v"),
    AggSpec(AggKind.MAX, "A", "v"),
    AggSpec(AggKind.AVG, "A", "v"),
)
NAMES = tuple(str(spec) for spec in SPECS)


def _vector(*cells):
    """The cell vector holding ``cells``, one per window."""
    return [list(values) for values in zip(*cells)]


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
    merged = combine_cells(a, b, merges)
    assert window_cell(merged, 0) == [3, 4, 14, 1, 7]
    ident = identity_cells(accs, 1)
    assert combine_cells(a, ident, merges) == a
    assert combine_cells(ident, a, merges) == a
    assert combine_cells(merged, ident, merges) == merged


def test_absorb_start_event():
    accs, _ = build_accumulators(SPECS)
    pred = identity_cells(accs, 1)
    cell = window_cell(absorb_cells(pred, event_updates(accs, "A"), {"v": 6}, True), 0)
    # one new trend; its one A-event contributes v=6 everywhere
    assert cell == [1, 1, 6, 6, 6]


def test_absorb_extends_predecessor_trends():
    accs, _ = build_accumulators(SPECS)
    pred = _vector([3, 2, 10, 4, 9])  # merged predecessor cell
    updates = event_updates(accs, "A")
    cell = absorb_cells(pred, updates, {"v": 6}, False)
    # 3 trends extended: +3 A-occurrences, +6*3 to the sum, lattice with 6
    assert window_cell(cell, 0) == [3, 5, 28, 4, 9]
    as_start = absorb_cells(pred, updates, {"v": 6}, True)
    assert window_cell(as_start, 0) == [4, 6, 34, 4, 9]


def test_absorb_other_variable_propagates_untouched():
    accs, _ = build_accumulators(SPECS)
    pred = _vector([3, 2, 10, 4, 9])
    cell = absorb_cells(pred, event_updates(accs, "B"), {"v": 100}, False)
    assert window_cell(cell, 0) == [3, 2, 10, 4, 9]


def test_absorb_on_zero_trends_does_not_poison_min_max():
    # An end-variable event with no predecessors sits on zero trends; its
    # value must not leak into MIN/MAX (sums are self-guarded by the factor).
    accs, _ = build_accumulators(
        (AggSpec(AggKind.MIN, "B", "v"), AggSpec(AggKind.SUM, "B", "v"))
    )
    pred = identity_cells(accs, 1)
    cell = absorb_cells(pred, event_updates(accs, "B"), {"v": -99}, False)
    assert window_cell(cell, 0) == [0, None, 0]


def test_absorb_missing_attribute():
    accs, _ = build_accumulators((AggSpec(AggKind.SUM, "A", "v"),))
    with pytest.raises(MissingAttribute):
        absorb_cells(identity_cells(accs, 1), event_updates(accs, "A"), {}, True)


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
    cells = identity_cells(accs, 1)
    # 128 doublings of a start-variable cell: 2^128 dwarfs any fixed width
    for _ in range(128):
        cells = combine_cells(cells, absorb_cells(cells, updates, {}, True), merges)
    assert window_cell(cells, 0)[0] == 2**128 - 1


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
    accs, _ = build_accumulators(SPECS)
    merges = merge_functions(accs)
    one = combine_cells(_vector(a), _vector(b), merges)
    two = combine_cells(_vector(a, other_a), _vector(b, other_b), merges)
    assert one == [values[:1] for values in two]

    updates = event_updates(accs, variable)
    try:
        two = absorb_cells(_vector(a, other_a), updates, attrs, is_start)
    except MissingAttribute:
        with pytest.raises(MissingAttribute):
            absorb_cells(_vector(a), updates, attrs, is_start)
        return
    one = absorb_cells(_vector(a), updates, attrs, is_start)
    assert one == [values[:1] for values in two]
