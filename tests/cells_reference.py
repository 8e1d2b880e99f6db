"""Slot-by-slot interpreters of the cell arithmetic: the reference that
``cells.compile_cells``' generated ``absorb``, ``merge`` and ``readout``
are tested against. Each reads the query's ``(slot, code, variable,
attr)`` tables on every call and applies one rule per slot."""

from operator import add

from trendagg.cells import ACC_COUNT, ACC_MAX, ACC_MIN, ACC_SUM
from trendagg.errors import AggregateOverflow, MissingAttribute


def merge_functions(accs):
    """One binary merge per cell slot: counts and sums add, min/max
    lattice-merge with ``None`` as the identity and ``nan`` absorbing."""
    return (add, *(_MERGE[code] for code, _, _ in accs))


def _merge_min(x, y):
    return x if y is None or x is not None and x <= y or x != x else y


def _merge_max(x, y):
    return x if y is None or x is not None and x >= y or x != x else y


_MERGE = {ACC_COUNT: add, ACC_SUM: add, ACC_MIN: _merge_min, ACC_MAX: _merge_max}


def merge_by_slot(a, b, merges):
    """Window-by-window merge of two cell vectors that start at the same
    window, one ``merges`` function per slot. One may end before the
    other: past its end it holds the identity, and the other's cells are
    taken as they are."""
    k = len(merges)
    n = min(len(a), len(b))
    cells = a.copy() if len(a) > len(b) else b.copy()
    for s, m in enumerate(merges):
        cells[s:n:k] = map(m, a[s:n:k], b[s:n:k])
    return cells


def absorb_cells(pred, updates, attrs, is_start, k):
    """Cells of a fresh event, window by window, given the merged cells of
    its predecessors in each window, the event's ``event_updates`` and the
    number ``k`` of slots per cell. In a window where it extends no trend,
    an event of a variable other than the start reads no attribute and
    changes no slot: no trend holds it there. The windows are taken oldest
    first, so an event that fails raises for the first window that fails."""
    cells = pred.copy()
    for j in range(0, len(pred), k):
        count = pred[j] + 1 if is_start else pred[j]
        if count == 0:
            continue
        cells[j] = count
        for i, code, target, attr in updates:
            prev = pred[j + i]
            if code == ACC_COUNT:
                cells[j + i] = prev + count
                continue
            value = _value(attrs, target, attr)
            if code == ACC_SUM:
                try:
                    cells[j + i] = prev + value * count
                except OverflowError as exc:
                    raise AggregateOverflow(f"the sum of {target}.{attr}", exc) from None
            elif code == ACC_MIN:  # a nan, once met, stays
                cells[j + i] = prev if prev is not None and prev <= value or prev != prev else value
            else:
                cells[j + i] = prev if prev is not None and prev >= value or prev != prev else value
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
