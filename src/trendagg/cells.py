"""Incremental aggregation cells.

A cell is a plain list: slot 0 holds the trend count (how many partial
trends end at the carrier of this cell), the remaining slots hold one
accumulator per requested aggregate. One cell carries every aggregate of a
query at once, so engines touch their predecessors a single time per event.

Kernels keep one cell per open window of a partition key, stored by slot:
a cell vector is a list holding, per slot, a list with one value per
window (oldest window first). Merges and event updates then run over all
windows of a slot at once. The plain-cell functions at the end are the
one-window case.

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

from .errors import MissingAttribute
from .query import AggKind, AggSpec

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
        elif spec.kind is AggKind.SUM:
            extractors.append(("acc", slot(ACC_SUM, spec.variable, spec.attr), 0))
        elif spec.kind is AggKind.MIN:
            extractors.append(("acc", slot(ACC_MIN, spec.variable, spec.attr), 0))
        elif spec.kind is AggKind.MAX:
            extractors.append(("acc", slot(ACC_MAX, spec.variable, spec.attr), 0))
        elif spec.kind is AggKind.AVG:
            s = slot(ACC_SUM, spec.variable, spec.attr)
            c = slot(ACC_COUNT, spec.variable)
            extractors.append(("avg", s, c))
        else:  # pragma: no cover
            raise AssertionError(spec.kind)
    return tuple(accs), tuple(extractors)


def merge_functions(accs):
    """One binary merge per cell slot: counts and sums add, min/max
    lattice-merge with ``None`` as the identity."""
    return (add, *(_MERGE[code] for code, _, _ in accs))


def _merge_min(x, y):
    if x is None:
        return y
    if y is None:
        return x
    return x if x <= y else y


def _merge_max(x, y):
    if x is None:
        return y
    if y is None:
        return x
    return x if x >= y else y


_MERGE = {ACC_COUNT: add, ACC_SUM: add, ACC_MIN: _merge_min, ACC_MAX: _merge_max}


def identity_cells(accs, width):
    """Identity cells of ``width`` windows, one fresh list per slot."""
    cells = [[0] * width]
    for code, _, _ in accs:
        cells.append([0] * width if code in (ACC_COUNT, ACC_SUM) else [None] * width)
    return cells


def combine_cells(a, b, merges):
    """Window-by-window merge of two cell vectors of equal width."""
    return list(map(list, map(map, merges, a, b)))


def event_updates(accs, variable):
    """The slots an event of ``variable`` changes, as
    ``(slot, code, variable, attr)``; the trend count aside."""
    return tuple(
        (i, code, target, attr)
        for i, (code, target, attr) in enumerate(accs, start=1)
        if target == variable
    )


def absorb_cells(pred, updates, attrs, is_start):
    """Cells of a fresh event, window by window, given the merged cells of
    its predecessors in each window and the event's ``event_updates``.

    The event extends every partial trend counted in ``pred`` and, when it
    is of the start variable, opens one more. Slots the event does not
    change are shared with ``pred``.
    """
    counts = [c + 1 for c in pred[0]] if is_start else pred[0]
    cells = pred.copy()
    cells[0] = counts
    for i, code, target, attr in updates:
        prev = pred[i]
        if code == ACC_COUNT:
            cells[i] = [p + c for p, c in zip(prev, counts)]
            continue
        try:
            value = attrs[attr]
        except KeyError:
            raise MissingAttribute(
                f"aggregate needs {target}.{attr}, absent on event"
            ) from None
        # On zero trends the event contributes nothing; min/max must not
        # pick up its value.
        if code == ACC_SUM:
            cells[i] = [p + value * c for p, c in zip(prev, counts)]
        elif code == ACC_MIN:
            cells[i] = [
                p if c == 0 or p is not None and p <= value else value
                for p, c in zip(prev, counts)
            ]
        else:
            cells[i] = [
                p if c == 0 or p is not None and p >= value else value
                for p, c in zip(prev, counts)
            ]
    return cells


def window_cell(cells, slot):
    """The plain cell of one window out of a cell vector."""
    return [values[slot] for values in cells]


def identity_cell(accs):
    return window_cell(identity_cells(accs, 1), 0)


def combine(a, b, accs):
    """Merge two cells: counts and sums add, min/max lattice-merge."""
    return [m(x, y) for m, x, y in zip(merge_functions(accs), a, b)]


def combine_all(cells, accs):
    out = identity_cell(accs)
    for cell in cells:
        out = combine(out, cell, accs)
    return out


def absorb_event(pred_cell, variable, attrs, is_start, accs):
    """Cell for a fresh event given the merged cell of its predecessors."""
    pred = [[value] for value in pred_cell]
    updates = event_updates(accs, variable)
    return window_cell(absorb_cells(pred, updates, attrs, is_start), 0)


def finalize(cell, specs, extractors):
    """Read the requested aggregate values out of a final cell."""
    out = {}
    for spec, (how, a, b) in zip(specs, extractors):
        if how == "star":
            value = cell[0]
        elif how == "acc":
            value = cell[a]
        else:  # avg
            total, n = cell[a], cell[b]
            value = None if n == 0 else total / n
        out[str(spec)] = value
    return out
