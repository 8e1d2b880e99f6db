"""Engine kernels, one class per aggregation granularity.

A kernel holds the state of one partition key over all of that key's open
windows. Those windows are a contiguous run of window ids; the kernel knows
them by position only, slot 0 being the oldest. Cells are kept as cell
vectors with one value per open window (see ``cells``), so each event is
applied once per key however many windows overlap. A new kernel has one
window open; the single-partition engine never opens or closes another.

All three share the step contract:

    step(time_ms, roles, attrs, width=1) -> list of (role, cells) | None

``roles`` are the pattern variables the event may play, already filtered by
local predicates; an empty tuple marks an event that cannot match (which
only the contiguous-semantics kernel cares about). ``width`` is the number
of windows the event falls into. Every window the kernel holds is one of
them, oldest first, so the kernel opens ``width - self.width`` new windows
at the back before it applies the event; a width not above the current one
opens none. Windows open only at the first event of a timestamp, since
events with equal timestamps fall into the same windows. ``final_cell``
reads the oldest window and ``drop_front`` forgets it. Events must arrive in
non-decreasing time order.

Events with equal timestamps can never sit next to each other inside a
trend, so all events sharing a timestamp are evaluated against the state as
it stood before the first of them ("shadow" copies keep the pre-batch cells
of every variable already updated in the current batch).

``entries()`` counts one entry per cell held per open window, as if every
window kept its own state.
"""

from __future__ import annotations

from itertools import chain, compress, repeat
from operator import eq

from .cells import (
    absorb_cells,
    combine_cells,
    event_updates,
    identity_cell,
    identity_cells,
    merge_functions,
    window_cell,
)
from .errors import MissingAttribute

BACKEND_NAME = "python"


def _theta_ok(checks, prev_attrs, next_attrs):
    for prev_attr, op, next_attr in checks:
        try:
            a = prev_attrs[prev_attr]
            b = next_attrs[next_attr]
        except KeyError as exc:
            raise MissingAttribute(
                f"adjacency predicate needs attribute {exc.args[0]}, absent on event"
            ) from None
        if not op(a, b):
            return False
    return True


def _widen(cells, extra):
    return [values + more for values, more in zip(cells, extra)]


def _drop_oldest(cells):
    return [values[1:] for values in cells]


def _add_into(pred, cells, merges, skip=0):
    """Merge ``cells``, from their window ``skip`` on, into the leading
    windows of ``pred``, in place."""
    for values, other, merge in zip(pred, cells, merges):
        if skip:
            other = other[skip:]
        values[: len(other)] = map(merge, values, other)


class TypeKernel:
    """One cell per pattern variable and window; state size fixed by the
    pattern."""

    def __init__(self, plan):
        self.plan = plan
        self.merges = merge_functions(plan.accs)
        self.updates = {r: event_updates(plan.accs, r) for r in plan.roles}
        self.width = 1
        self.cells = {r: identity_cells(plan.accs, 1) for r in plan.roles}
        self._shadow = {}
        self._batch_time = -1
        self.pred_accesses = 0

    def step(self, time, roles, attrs, width=1):
        if time != self._batch_time:
            self._shadow.clear()
            self._batch_time = time
        if width > self.width:
            extra = identity_cells(self.plan.accs, width - self.width)
            self.cells = {r: _widen(c, extra) for r, c in self.cells.items()}
            self.width = width
        plan = self.plan
        accs = plan.accs
        merges = self.merges
        out = []
        for r in roles:
            # Merging starts from the first predecessor rather than from the
            # identity; 0 + x is x for every slot value, since sums start
            # at integer 0 and so never hold -0.0.
            pred = None
            for p in plan.preds[r]:
                prev = self._shadow.get(p)
                if prev is None:
                    prev = self.cells[p]
                pred = prev if pred is None else combine_cells(pred, prev, merges)
                self.pred_accesses += 1
            if pred is None:
                pred = identity_cells(accs, self.width)
            cell = absorb_cells(pred, self.updates[r], attrs, r == plan.start)
            if r not in self._shadow:
                self._shadow[r] = self.cells[r]
            self.cells[r] = combine_cells(self.cells[r], cell, merges)
            out.append((r, cell))
        return out

    def drop_front(self):
        self.width -= 1
        self.cells = {r: _drop_oldest(c) for r, c in self.cells.items()}
        self._shadow = {r: _drop_oldest(c) for r, c in self._shadow.items()}

    def final_cell(self):
        return window_cell(self.cells[self.plan.end], 0)

    def entries(self):
        return self.width * (len(self.cells) + len(self._shadow))


class _Absent:
    """Column value of a kept event that lacks the attribute. Comparing it
    raises ``MissingAttribute``, so the event fails exactly when a check
    reaches it."""

    __slots__ = ("attr",)

    def __init__(self, attr):
        self.attr = attr

    def _missing(self, other):
        raise MissingAttribute(
            f"adjacency predicate needs attribute {self.attr}, absent on event"
        )

    __lt__ = __le__ = __gt__ = __ge__ = __eq__ = __ne__ = _missing


class MixedKernel:
    """Cells per variable, except that events of variables constrained by
    an adjacency predicate are kept individually and rechecked against
    every future successor.

    A kept event is stored once, with one cell for each window that holds
    it: from the oldest window open when it arrived to the newest. Windows
    are numbered from the kernel's creation on, so that a kept event's
    first window stays valid as older windows close.

    Beside the kept events, the kernel keeps their variables and the
    left-hand operand of every adjacency check in columns, in arrival
    order. A new event selects its predecessors column by column:
    ``compress`` over the kept positions with ``map(op, column,
    repeat(value))`` as selector, one check after another, so that a kept
    event meets a check only if it passed the earlier ones. The selected
    events' cells are then merged in arrival order, into every window the
    two events share, so float sums do not depend on how the predecessors
    were selected.
    """

    def __init__(self, plan):
        self.plan = plan
        self.merges = merge_functions(plan.accs)
        self.updates = {r: event_updates(plan.accs, r) for r in plan.roles}
        self.width = 1
        self.base = 0  # number of the oldest open window
        self.type_cells = {
            r: identity_cells(plan.accs, 1)
            for r in plan.roles
            if r not in plan.event_grained
        }
        # Per variable: (kept predecessor variable, its adjacency checks).
        self.sources = {
            r: tuple(
                (p, plan.theta.get((p, r), ()))
                for p in plan.preds[r]
                if p not in self.type_cells
            )
            for r in plan.roles
        }
        self.events = []  # (time, role, first window, cells) in arrival order
        self.roles = []  # role of each kept event
        self._one_role = len(plan.roles) - len(self.type_cells) == 1
        self.columns = {
            a: [] for checks in plan.theta.values() for a, _, _ in checks
        }
        self._absent = {a: _Absent(a) for a in self.columns}
        self.final_acc = identity_cells(plan.accs, 1)
        self._held = 0  # (kept event, open window) pairs
        self._shadow = {}
        self._batch_time = -1
        self._watermark = 0
        self.pred_accesses = 0

    def _predecessors(self, r, attrs):
        """Positions of the kept events, up to the current timestamp, that
        may directly precede an ``r``-event with ``attrs``; ascending."""
        n = self._watermark
        picked = []
        for p, checks in self.sources[r]:
            if self._one_role:
                positions = range(n)
            else:
                positions = list(compress(range(n), map(eq, self.roles, repeat(p))))
            self.pred_accesses += len(positions)
            for prev_attr, op, next_attr in checks:
                if not positions:
                    break
                try:
                    value = attrs[next_attr]
                except KeyError:
                    raise MissingAttribute(
                        f"adjacency predicate needs attribute {next_attr}, "
                        "absent on event"
                    ) from None
                column = self.columns[prev_attr]
                if type(positions) is not range:  # not every kept event
                    column = map(column.__getitem__, positions)
                positions = list(compress(positions, map(op, column, repeat(value))))
            picked.append(positions)
        if len(picked) == 1:
            return picked[0]
        return sorted(chain.from_iterable(picked))

    def step(self, time, roles, attrs, width=1):
        if time != self._batch_time:
            self._shadow.clear()
            self._batch_time = time
            self._watermark = len(self.events)
        if width > self.width:
            extra = identity_cells(self.plan.accs, width - self.width)
            self.type_cells = {r: _widen(c, extra) for r, c in self.type_cells.items()}
            self.final_acc = _widen(self.final_acc, extra)
            self.width = width
        plan = self.plan
        accs = plan.accs
        merges = self.merges
        base = self.base
        events = self.events
        out = []
        for r in roles:
            pred = identity_cells(accs, self.width)
            for p in plan.preds[r]:
                if p in self.type_cells:
                    prev = self._shadow.get(p)
                    if prev is None:
                        prev = self.type_cells[p]
                    _add_into(pred, prev, merges)
                    self.pred_accesses += 1
            for _, _, first, stored_cells in map(
                events.__getitem__, self._predecessors(r, attrs)
            ):
                # The stored event's windows from the oldest open one on are
                # exactly the windows it shares with the new event.
                _add_into(pred, stored_cells, merges, base - first)
            cell = absorb_cells(pred, self.updates[r], attrs, r == plan.start)
            if r in self.type_cells:
                if r not in self._shadow:
                    self._shadow[r] = self.type_cells[r]
                self.type_cells[r] = combine_cells(self.type_cells[r], cell, merges)
            else:
                events.append((time, r, base, cell))
                self.roles.append(r)
                for a, column in self.columns.items():
                    column.append(attrs.get(a, self._absent[a]))
                self._held += self.width
                if r == plan.end:
                    self.final_acc = combine_cells(self.final_acc, cell, merges)
            out.append((r, cell))
        return out

    def drop_front(self):
        events = self.events
        self._held -= len(events)  # every kept event holds the oldest window
        self.width -= 1
        self.base += 1
        gone = 0
        for _, _, first, cells in events:
            if first + len(cells[0]) > self.base:
                break
            gone += 1
        if gone:
            del events[:gone]
            del self.roles[:gone]
            for column in self.columns.values():
                del column[:gone]
            self._watermark = max(0, self._watermark - gone)
        self.type_cells = {r: _drop_oldest(c) for r, c in self.type_cells.items()}
        self._shadow = {r: _drop_oldest(c) for r, c in self._shadow.items()}
        self.final_acc = _drop_oldest(self.final_acc)

    def final_cell(self):
        if self.plan.end in self.type_cells:
            return window_cell(self.type_cells[self.plan.end], 0)
        return window_cell(self.final_acc, 0)

    def stored(self):
        """(time, role, cell) of every kept event, in the oldest window."""
        return [
            (t, r, window_cell(cells, self.base - first))
            for (t, r, first, cells) in self.events
        ]

    def entries(self):
        return self.width * (len(self.type_cells) + len(self._shadow)) + self._held


class PatternKernel:
    """Only the last matched event and, per window, a last cell and a
    running final cell.

    Used for skip-till-next-match and contiguous runs. The last matched
    event is shared by every window whose open trend ends at it; ``valid``
    marks those windows. A window that never matched, or whose trend was
    severed, has no open trend. An event that cannot match is ignored under
    skip-till-next-match; under contiguous semantics it severs every open
    trend (the final cells survive).
    """

    def __init__(self, plan):
        self.plan = plan
        self.merges = merge_functions(plan.accs)
        self.updates = {r: event_updates(plan.accs, r) for r in plan.roles}
        self.width = 1
        self.last = None  # (time, role, attrs)
        self.valid = [False]
        self.last_cell = identity_cells(plan.accs, 1)
        self.final_acc = identity_cells(plan.accs, 1)
        self.pred_accesses = 0

    def step(self, time, roles, attrs, width=1):
        if width > self.width:
            extra = identity_cells(self.plan.accs, width - self.width)
            self.valid = self.valid + [False] * (width - self.width)
            self.last_cell = _widen(self.last_cell, extra)
            self.final_acc = _widen(self.final_acc, extra)
            self.width = width
        plan = self.plan
        accs = plan.accs
        if roles:
            r = roles[0]
            is_start = r == plan.start
            adjacent = False
            if self.last is not None:
                last_time, last_role, last_attrs = self.last
                if last_role in plan.preds[r] and last_time < time:
                    checks = plan.theta.get((last_role, r))
                    self.pred_accesses += 1
                    adjacent = checks is None or _theta_ok(checks, last_attrs, attrs)
            extend = self.valid if adjacent else [False] * self.width
            if is_start or any(extend):
                pred = [
                    [value if keep else ident for value, keep in zip(values, extend)]
                    for values, ident in zip(self.last_cell, identity_cell(accs))
                ]
                cell = absorb_cells(pred, self.updates[r], attrs, is_start)
                matched = [True] * self.width if is_start else extend
                if r == plan.end:
                    self.final_acc = [
                        [merge(f, c) if hit else f for f, c, hit in zip(fs, cs, matched)]
                        for fs, cs, merge in zip(self.final_acc, cell, self.merges)
                    ]
                self.last = (time, r, attrs)
                self.last_cell = [
                    [c if hit else old for c, old, hit in zip(cs, olds, matched)]
                    for cs, olds in zip(cell, self.last_cell)
                ]
                self.valid = matched
                return [(r, cell)]
        # not matched in any window
        if plan.cont:
            self.last = None
            self.valid = [False] * self.width
            self.last_cell = identity_cells(accs, self.width)
        return None

    def drop_front(self):
        self.width -= 1
        self.valid = self.valid[1:]
        self.last_cell = _drop_oldest(self.last_cell)
        self.final_acc = _drop_oldest(self.final_acc)

    def final_cell(self):
        return window_cell(self.final_acc, 0)

    def last_count(self):
        return self.last_cell[0][0] if self.valid[0] else 0

    def entries(self):
        return 2 * self.width + sum(self.valid)
