"""Incremental aggregation cells.

A cell is a plain list: slot 0 holds the trend count (how many partial
trends end at the carrier of this cell), the remaining slots hold one
accumulator per requested aggregate. One cell carries every aggregate of a
query at once, so engines touch their predecessors a single time per event.

Kernels keep one cell per open window of a partition key in one flat
list, window-major and oldest window first: with ``k`` slots per cell,
slot ``s`` of window ``j`` sits at ``j * k + s``. The identity vector of
``w`` windows is then ``identity_cell(accs) * w``, widening is list
concatenation, dropping the oldest window is ``cells[k:]`` and reading one
window is a slice. When every slot merges with ``add`` (COUNT, SUM and
AVG only) the plan is additive, and two vectors merge with one
``map(add, ...)`` over the whole list; otherwise each slot merges over a
strided slice.

A vector of width 1 - every vector of a tumbling query, and of a sliding
query whose key holds one open window - takes a scalar branch in
``combine_cells`` and ``absorb_cells``: the same arithmetic on each slot's
single value, without a slice per slot. Both functions read the width from
the vector's length.

Counts are plain Python integers and therefore unbounded - under
skip-till-any-match they grow exponentially with window size and would
overflow any fixed width. Sums over integer attributes stay exact for the
same reason; float sums are accumulated in a fixed order so results are
reproducible bit for bit.

Accumulator update rules (``count`` is the carrier's trend count after the
start increment):

    count-of-variable: pred + count           when the event matches the target
    sum:               pred + value * count
    min/max:           lattice-merge of pred and value, but only when
                       count > 0 - an event on zero trends contributes to
                       no aggregate, and unlike the additive accumulators
                       min/max are not self-guarded by the * count factor.

AVG is never maintained incrementally; it is derived at read-out as
SUM/COUNT(variable) and is null when that count is zero.
"""

from __future__ import annotations

from operator import add

from .errors import AggregateOverflow, MissingAttribute
from .query import AggKind

# Accumulator codes
ACC_COUNT = 0  # count of target-variable events, weighted by trend count
ACC_SUM = 1
ACC_MIN = 2
ACC_MAX = 3


def build_accumulators(specs):
    """Deduplicate specs into accumulator slots.

    Returns (accs, extractors): ``accs`` is a tuple of
    ``(code, variable, attr)`` describing cell slots 1..n; ``extractors``
    maps each original spec to how its value is read back -
    ``("star",)``, ``("acc", slot_index)`` or ``("avg", sum_slot, count_slot)``.
    """
    accs = []
    index = {}

    def slot(code, variable, attr=None):
        key = (code, variable, attr)
        if key not in index:
            index[key] = len(accs) + 1  # cell slot (0 is the trend count)
            accs.append(key)
        return index[key]

    extractors = []
    for spec in specs:
        if spec.kind is AggKind.COUNT_STAR:
            extractors.append(("star", 0, 0))
        elif spec.kind is AggKind.COUNT:
            extractors.append(("acc", slot(ACC_COUNT, spec.variable), 0))
        elif spec.kind is AggKind.AVG:
            s = slot(ACC_SUM, spec.variable, spec.attr)
            c = slot(ACC_COUNT, spec.variable)
            extractors.append(("avg", s, c))
        else:
            code = _CODES[spec.kind]
            extractors.append(("acc", slot(code, spec.variable, spec.attr), 0))
    return tuple(accs), tuple(extractors)


_CODES = {AggKind.SUM: ACC_SUM, AggKind.MIN: ACC_MIN, AggKind.MAX: ACC_MAX}


def merge_functions(accs):
    """One binary merge per cell slot: counts and sums add, min/max
    lattice-merge with ``None`` as the identity."""
    return (add, *(_MERGE[code] for code, _, _ in accs))


def _merge_min(x, y):
    return x if y is None or x is not None and x <= y else y


def _merge_max(x, y):
    return x if y is None or x is not None and x >= y else y


_MERGE = {ACC_COUNT: add, ACC_SUM: add, ACC_MIN: _merge_min, ACC_MAX: _merge_max}


def identity_cell(accs):
    """The cell of no trends: zero counts and sums, no min or max yet."""
    return [0, *(0 if code in (ACC_COUNT, ACC_SUM) else None for code, _, _ in accs)]


def combine_cells(a, b, merges, additive):
    """Window-by-window merge of two cell vectors that start at the same
    window; ``additive`` says that every one of ``merges`` is ``add``. One
    vector may end before the other: past its end it holds the identity,
    so there the other's cells are taken as they are."""
    if len(a) != len(b):
        n = min(len(a), len(b))
        return combine_cells(a[:n], b[:n], merges, additive) + (a[n:] or b[n:])
    if additive:
        return list(map(add, a, b))
    k = len(merges)
    if len(a) == k:
        return [m(x, y) for m, x, y in zip(merges, a, b)]
    cells = a.copy()
    for s, m in enumerate(merges):
        cells[s::k] = map(m, a[s::k], b[s::k])
    return cells


def event_updates(accs, variable):
    """The slots an event of ``variable`` changes, as
    ``(slot, code, variable, attr)``; the trend count aside."""
    return tuple(
        (i, code, target, attr)
        for i, (code, target, attr) in enumerate(accs, start=1)
        if target == variable
    )


def absorb_cells(pred, updates, attrs, is_start, k):
    """Cells of a fresh event, window by window, given the merged cells of
    its predecessors in each window, the event's ``event_updates`` and the
    number ``k`` of slots per cell.

    The event extends every partial trend counted in ``pred`` and, when it
    is of the start variable, opens one more. Raises ``AggregateOverflow``
    when a float sum meets a trend count too large for a float.
    """
    if len(pred) == k:
        return _absorb_one(pred, updates, attrs, is_start)
    counts = pred[::k]
    cells = pred.copy()
    if is_start:
        counts = [c + 1 for c in counts]
        cells[::k] = counts
    try:
        for i, code, target, attr in updates:
            prev = pred[i::k]
            if code == ACC_COUNT:
                cells[i::k] = map(add, prev, counts)
                continue
            value = _value(attrs, target, attr)
            # On zero trends the event contributes nothing; min/max must not
            # pick up its value.
            if code == ACC_SUM:
                cells[i::k] = [p + value * c for p, c in zip(prev, counts)]
            elif code == ACC_MIN:
                cells[i::k] = [
                    p if c == 0 or p is not None and p <= value else value
                    for p, c in zip(prev, counts)
                ]
            else:
                cells[i::k] = [
                    p if c == 0 or p is not None and p >= value else value
                    for p, c in zip(prev, counts)
                ]
    except OverflowError as exc:
        raise AggregateOverflow(f"the sum of {target}.{attr}", exc) from None
    return cells


def _absorb_one(pred, updates, attrs, is_start):
    """``absorb_cells`` on a vector of one window."""
    count = pred[0] + 1 if is_start else pred[0]
    cells = pred.copy()
    cells[0] = count
    try:
        for i, code, target, attr in updates:
            p = pred[i]
            if code == ACC_COUNT:
                cells[i] = p + count
                continue
            value = _value(attrs, target, attr)
            if code == ACC_SUM:
                cells[i] = p + value * count
            elif code == ACC_MIN:
                cells[i] = p if count == 0 or p is not None and p <= value else value
            else:
                cells[i] = p if count == 0 or p is not None and p >= value else value
    except OverflowError as exc:
        raise AggregateOverflow(f"the sum of {target}.{attr}", exc) from None
    return cells


def _value(attrs, target, attr):
    try:
        return attrs[attr]
    except KeyError:
        raise MissingAttribute(
            f"aggregate needs {target}.{attr}, absent on event"
        ) from None


def finalize(cell, names, extractors):
    """Read the requested aggregate values out of a final cell, keyed by
    ``names`` (the aggregates' RETURN-clause spellings, in order)."""
    out = {}
    try:
        for name, (how, a, b) in zip(names, extractors):
            if how == "star":
                value = cell[0]
            elif how == "acc":
                value = cell[a]
            else:  # avg
                total, n = cell[a], cell[b]
                value = None if n == 0 else total / n
            out[name] = value
    except OverflowError as exc:
        raise AggregateOverflow(name, exc) from None
    return out
