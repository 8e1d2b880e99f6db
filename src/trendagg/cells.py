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
``map(add, ...)`` over the whole list.

The arithmetic on cells is compiled once per query: ``compile_cells``
writes straight-line Python source for one ``absorb`` per pattern
variable, one ``merge`` and one ``readout``, and builds the functions with
``compile``/``exec`` (the way ``collections.namedtuple`` builds its
methods). The source holds only integer slot indices and the ``repr`` of
parsed names. Each slot rule is written once, as the lines that update or
merge one window; ``absorb`` and ``merge`` run them window by window,
oldest first, and the kernel step runs them inline on a vector of one
window - every vector of a tumbling query, and of a sliding query whose
key holds one open window. Within a window each slot has its own
statement, in slot order, so an event that fails raises the first failing
slot of the first window that fails: the order in which the windows
close.

Counts are plain Python integers and therefore unbounded - under
skip-till-any-match they grow exponentially with window size and would
overflow any fixed width. Sums over integer attributes stay exact for the
same reason; float sums are accumulated in a fixed order so results are
reproducible bit for bit.

Accumulator update rules (``count`` is the carrier's trend count after the
start increment):

    count-of-variable: pred + count           when the event matches the target
    sum:               pred + value * count
    min/max:           lattice-merge of pred and value

Each rule applies only where count > 0: an event on zero trends (of a
variable other than the start, in some window) is in no trend there, so
there it changes no slot and reads no attribute.

AVG is never maintained incrementally; it is derived at read-out as
SUM/COUNT(variable) and is null when that count is zero.
"""

from __future__ import annotations

from collections import namedtuple
from functools import partial
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
_ADDITIVE = (ACC_COUNT, ACC_SUM)


def identity_cell(accs):
    """The cell of no trends: zero counts and sums, no min or max yet."""
    return [0, *(0 if code in _ADDITIVE else None for code, _, _ in accs)]


def event_updates(accs, variable):
    """The slots an event of ``variable`` changes, as
    ``(slot, code, variable, attr)``; the trend count aside."""
    return tuple(
        (i, code, target, attr)
        for i, (code, target, attr) in enumerate(accs, start=1)
        if target == variable
    )


CellCode = namedtuple(
    "CellCode", "absorb merge readout additive source absorb_one merge_one"
)


def compile_cells(accs, extractors, names, roles, start):
    """The cell arithmetic of one query, as generated functions.

    ``absorb[r](pred, attrs)`` returns the cells of a fresh ``r``-event,
    window by window, given the merged cells of its predecessors in each
    window: the event extends every partial trend counted in ``pred`` and,
    when ``r`` is ``start``, opens one more. It raises ``MissingAttribute``
    when ``attrs`` lacks an aggregated attribute that it reads (a
    variable other than ``start`` reads none on zero trends), and
    ``AggregateOverflow`` when a float sum meets a trend count too large
    for a float; it raises for the first window that fails.
    ``merge(a, b)`` merges two vectors that start at the same window; one
    may end before the other, and past its end the other's cells are
    taken as they are. ``readout(cell)`` maps ``names`` (the aggregates'
    RETURN-clause spellings, in order) to their values in one final cell.
    ``additive`` says that every slot merges with ``add``; ``source`` is
    the generated text.

    The one-window arithmetic is also handed out as source, for
    ``kernels.compile_step`` to run inline: ``absorb_one[r]`` holds lines
    that give, on one window, the cells ``absorb[r]`` gives; they
    read ``pred`` and ``attrs`` and leave the new cell's slots in the
    locals ``c0``, ``c1``, .... ``merge_one(x, y)`` is the expression, a
    list display, of the merge of two cells held in the locals ``x0``,
    ... and ``y0``, .... ``absorb`` and ``merge`` run these same lines on
    each window.
    """
    k = len(accs) + 1
    additive = all(code in _ADDITIVE for code, _, _ in accs)
    codes = (ACC_COUNT, *(code for code, _, _ in accs))
    absorb_one = {}
    lines = []
    for n, r in enumerate(roles):
        body = _absorb_lines(event_updates(accs, r), r == start)
        absorb_one[r] = [unpack("c", k, "pred"), *body]
        lines += [
            f"def absorb_{n}(pred, attrs):",
            "    cells = []",
            "    p = iter(pred)",
            f"    for {_target('c', k)} in {_windows('p', k)}:",
            *("        " + line for line in body),
            f"        cells += [{', '.join(f'c{s}' for s in range(k))}]",
            "    return cells",
            "",
        ]
    lines += _merge_source(codes, k, additive)
    lines += _readout_source(names, extractors)
    source = "\n".join(lines) + "\n"
    namespace = {
        "add": add,
        "AggregateOverflow": AggregateOverflow,
        "MissingAttribute": MissingAttribute,
    }
    exec(compile(source, "<trendagg cells>", "exec"), namespace)
    absorb = {r: namespace[f"absorb_{n}"] for n, r in enumerate(roles)}
    return CellCode(
        absorb,
        namespace["merge"],
        namespace["readout"],
        additive,
        source,
        absorb_one,
        partial(_merge_one, codes),
    )


def _target(prefix, k):
    """The locals ``prefix0``, ``prefix1``, ... of ``k`` slots, as the
    target of an assignment or a ``for``."""
    return f"{', '.join(f'{prefix}{s}' for s in range(k))},"


def _windows(slots, k):
    """The iterable of the cells of each window, as tuples of ``k`` slots,
    given the name ``slots`` of an iterator over a vector's slots."""
    return f"zip({', '.join([slots] * k)})"


def unpack(prefix, k, vector):
    """The statement that unpacks the ``k`` slots of a one-window
    ``vector`` into the locals ``prefix0``, ``prefix1``, ...."""
    return f"{_target(prefix, k)} = {vector}"


# A slot's new value from its old value ``p``, the event's value ``v`` and
# the trend count ``c``; on zero trends the event contributes nothing, and
# min/max must not pick up its value. Min/max hold a ``nan`` once they have
# met one, as sums do: a ``nan`` compares false either way, and only it is
# unequal to itself.
_UPDATE = {
    ACC_COUNT: "{p} + {c}",
    ACC_SUM: "{p} + {v} * {c}",
    ACC_MIN: "{p} if {c} == 0 or {p} is not None and {p} <= {v} or {p} != {p} else {v}",
    ACC_MAX: "{p} if {c} == 0 or {p} is not None and {p} >= {v} or {p} != {p} else {v}",
}
# A slot of two merged cells; ``None`` is the identity of min/max.
_MERGE = {
    ACC_COUNT: "{x} + {y}",
    ACC_SUM: "{x} + {y}",
    ACC_MIN: "{x} if {y} is None or {x} is not None and {x} <= {y} or {x} != {x} else {y}",
    ACC_MAX: "{x} if {y} is None or {x} is not None and {x} >= {y} or {x} != {x} else {y}",
}


def _absorb_lines(updates, is_start):
    """The lines that absorb an event into one window's cell, held in the
    locals ``c0``, ...; past the start variable, the updates run only
    where the count is not zero."""
    values = {}  # attribute -> local holding its value, read at first use
    body = []
    for i, code, target, attr in updates:
        if code == ACC_COUNT:
            body.append(f"c{i} = " + _UPDATE[code].format(p=f"c{i}", c="c0"))
            continue
        if attr not in values:
            v = values[attr] = f"v{len(values)}"
            message = f"aggregate needs {target}.{attr}, absent on event"
            body += [
                "try:",
                f"    {v} = attrs[{attr!r}]",
                "except KeyError:",
                f"    raise MissingAttribute({message!r}) from None",
            ]
        update = f"c{i} = " + _UPDATE[code].format(p=f"c{i}", v=values[attr], c="c0")
        if code == ACC_SUM:
            body += [
                "try:",
                "    " + update,
                "except OverflowError as exc:",
                f"    raise AggregateOverflow({f'the sum of {target}.{attr}'!r}, exc)"
                " from None",
            ]
        else:
            body.append(update)
    if is_start:
        return ["c0 = c0 + 1", *body]
    return ["if c0:", *("    " + line for line in body)] if body else []


def _merge_one(codes, x, y):
    slots = (_MERGE[c].format(x=f"{x}{s}", y=f"{y}{s}") for s, c in enumerate(codes))
    return f"[{', '.join(slots)}]"


def _merge_source(codes, k, additive):
    """``merge``: the longer vector's windows past the shorter one's end
    are taken as they are."""
    tail = ["    cells += a[len(b):] or b[len(a):]", "    return cells", ""]
    if additive:
        return ["def merge(a, b):", "    cells = list(map(add, a, b))", *tail]
    return [
        "def merge(a, b):",
        "    cells = []",
        "    p = iter(a)",
        "    q = iter(b)",
        f"    for ({_target('a', k)}), ({_target('b', k)}) in "
        f"zip({_windows('p', k)}, {_windows('q', k)}):",
        f"        cells += {_merge_one(codes, 'a', 'b')}",
        *tail,
    ]


def _readout_source(names, extractors):
    body = []
    values = []
    for n, (name, (how, a, b)) in enumerate(zip(names, extractors)):
        if how != "avg":  # COUNT(*) reads slot 0, the others their own slot
            values.append(f"cell[{a}]")
            continue
        body += [
            "try:",
            f"    avg{n} = None if cell[{b}] == 0 else cell[{a}] / cell[{b}]",
            "except OverflowError as exc:",
            f"    raise AggregateOverflow({name!r}, exc) from None",
        ]
        values.append(f"avg{n}")
    pairs = ", ".join(f"{name!r}: {value}" for name, value in zip(names, values))
    return [
        "def readout(cell):",
        *("    " + line for line in body),
        f"    return {{{pairs}}}",
        "",
    ]
