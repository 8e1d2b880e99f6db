"""Slot-by-slot interpreters of the cell arithmetic: the reference that
``cells.compile_cells``' generated ``absorb``, ``merge`` and ``readout``
are tested against. Each reads the query's ``(slot, code, variable,
attr)`` tables on every call and applies one rule per slot."""

from operator import add

from trendagg.cells import ACC_COUNT, ACC_MAX, ACC_MIN, ACC_SUM
from trendagg.errors import AggregateOverflow, MissingAttribute


def merge_functions(accs):
    """One binary merge per cell slot: counts and sums add, min/max
    lattice-merge with ``None`` as the identity."""
    return (add, *(_MERGE[code] for code, _, _ in accs))


def _merge_min(x, y):
    return x if y is None or x is not None and x <= y else y


def _merge_max(x, y):
    return x if y is None or x is not None and x >= y else y


_MERGE = {ACC_COUNT: add, ACC_SUM: add, ACC_MIN: _merge_min, ACC_MAX: _merge_max}


def merge_by_slot(a, b, merges):
    """Window-by-window merge of two cell vectors of equal length, one
    ``merges`` function per slot."""
    k = len(merges)
    if len(a) == k:
        return [m(x, y) for m, x, y in zip(merges, a, b)]
    cells = a.copy()
    for s, m in enumerate(merges):
        cells[s::k] = map(m, a[s::k], b[s::k])
    return cells


def absorb_cells(pred, updates, attrs, is_start, k):
    """Cells of a fresh event, window by window, given the merged cells of
    its predecessors in each window, the event's ``event_updates`` and the
    number ``k`` of slots per cell. In a window where it extends no trend,
    an event of a variable other than the start reads no attribute and
    changes no slot: no trend holds it there."""
    counts = pred[::k]
    cells = pred.copy()
    if is_start:
        counts = [c + 1 for c in counts]
        cells[::k] = counts
    elif not any(counts):
        return cells
    try:
        for i, code, target, attr in updates:
            prev = pred[i::k]
            if code == ACC_COUNT:
                cells[i::k] = map(add, prev, counts)
                continue
            value = _value(attrs, target, attr)
            if code == ACC_SUM:
                cells[i::k] = [p + value * c if c else p for p, c in zip(prev, counts)]
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
