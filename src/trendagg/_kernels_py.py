"""The engine kernel: one class for all three matching semantics.

``MixedKernel`` runs every plan. It keeps one cell per type-grained
variable and, for each variable constrained by an adjacency predicate,
every event individually; type granularity is the case in which no
variable is event-grained, so the kernel keeps no events. The semantics
differ only in which predecessors an event may read (see ``MixedKernel``).

A kernel holds the state of one partition key over all of that key's open
windows. Those windows are a contiguous run of window ids; the kernel knows
them by position only, position 0 being the oldest. Cells are kept as flat
cell vectors holding one cell per open window, oldest first (see
``cells``), so each event is applied once per key however many windows
overlap. A new kernel has one window open; the single-partition engine
never opens or closes another.

The step contract:

    step(time_ms, roles, attrs, width=1) -> list of (role, cells)

``roles`` are the pattern variables the event may play, already filtered by
local predicates; an empty tuple marks an event that cannot match (which
only contiguous semantics cares about). ``width`` is the number
of windows the event falls into. Every window the kernel holds is one of
them, oldest first, so the kernel opens ``width - self.width`` new windows
at the back before it applies the event; a width not above the current one
opens none. Windows open only at the first event of a timestamp, since
events with equal timestamps fall into the same windows. ``final_cell``
reads the oldest window and ``drop_front`` closes it; a caller ends the
current timestamp before it closes a window. Closing is
bookkeeping only: the closed windows stay at the front of the vectors,
and the kept events that hold no open window stay at the front of the
kept events, until the next ``step`` trims them off in one pass. A kernel
whose last window closes is discarded rather than trimmed. Events must
arrive in non-decreasing time order.

Events with equal timestamps can never sit next to each other inside a
trend, so all events sharing a timestamp are evaluated against the state as
it stood before the first of them ("shadow" copies keep the pre-batch cells
of every variable already updated in the current batch). A shadow lives
only while its timestamp lasts: ``end_timestamp()`` ends the timestamp,
and the caller calls it as soon as the stream moves past that timestamp.
A kernel that steps at a later time without it ends the timestamp itself
first.

A type-grained variable with no readable trends holds no cell: a new
kernel holds none, and a variable whose trends are consumed or cut off
loses its cell. Nor does opening a window extend a variable's cells: they
reach from the oldest open window to the newest one the variable was
updated in. An absent cell, and the windows past the end of a vector,
read as the identity cell, and merging the identity changes nothing:
counts add 0, sums never hold -0.0, and MIN and MAX skip ``None``.

``entries()`` counts one entry per held cell vector (type cells and
shadows) per open window it reaches, and one per kept event per open
window that holds it, as if every window kept its own state; closed
windows not yet trimmed count for nothing. The count is kept in ``entry_count`` as
``step``, ``end_timestamp`` and ``drop_front`` change it.
"""

from __future__ import annotations

from itertools import chain, compress, islice, repeat
from operator import add, eq

from .cells import absorb_cells, combine_cells
from .errors import MissingAttribute

BACKEND_NAME = "python"


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
    every future successor. With no such variable, it keeps no events and
    its state is one cell per variable and window: type granularity.

    A kept event is stored once, with a cell vector over the windows that
    hold it: from the oldest window open when it arrived to the newest.
    Windows are numbered from the kernel's creation on, so that a kept
    event's first window stays valid as older windows close.

    Beside the kept events, the kernel keeps their variables and the
    left-hand operand of every adjacency check in columns, in arrival
    order. A new event selects its predecessors column by column:
    ``compress`` over the kept positions with ``map(op, column,
    repeat(value))`` as selector, one check after another, so that a kept
    event meets a check only if it passed the earlier ones. The selected
    events' cells are then merged in arrival order, into every window the
    two events share, so float sums do not depend on how the predecessors
    were selected. Under an additive plan each merge is one ``map(add, ...)``
    over the shared windows, with no call; otherwise ``combine_cells`` merges
    slot by slot over strided slices.

    The predecessors an event may read - a type-grained variable's cells
    or a kept event - depend on the semantics:

    * skip-till-any-match: everything before the event's timestamp. A
      variable's cells then hold all of its trends, and the end variable's
      cells are the final ones.
    * skip-till-next-match: an open chain must take the first event that
      can extend it, so a predecessor leaves the readable state once an
      event reads it. Chains whose tips play the same variable, or end at
      the same kept event, continue alike, so one cell per tip is exact.
    * contiguous: only the events at the key's immediately preceding
      timestamp, unmatched ones included. When that timestamp held more
      than one event, no trend can pass through it, so its events pass on
      only the trends they start.

    Under the last two, while a timestamp lasts, a type-grained variable's
    shadow holds its readable cells and its own cells only what the
    timestamp added; when the timestamp ends the two are merged (``next``)
    or the shadow is dropped (``cont``).
    """

    def __init__(self, plan):
        self.plan = plan
        self.width = 1
        self.base = 0  # number of the oldest open window
        self.time = None  # the current timestamp; None once it has ended
        self.type_cells = {}  # type-grained variable -> cells, if any
        self.events = []  # (time, role, first window, cells) in arrival order
        self.roles = []  # role of each kept event
        self._one_role = len(plan.event_grained) == 1
        self.columns = {a: [] for checks in plan.theta.values() for a, _, _ in checks}
        self._absent = {a: _Absent(a) for a in self.columns}
        # The end variable's trends: in its type cells under
        # skip-till-any-match, otherwise merged here as they finish.
        self.final_acc = (
            None
            if plan.cumulative and plan.end not in plan.event_grained
            else plan.identity.copy()
        )
        # (cell vector or kept event, open window) pairs: what entries()
        # returns.
        self.entry_count = 0
        self._stale = 0  # closed windows still at the front of the vectors
        self._dead = 0  # leading kept events that hold no open window
        # Type-grained variable updated this timestamp -> its readable cells,
        # or () where it has none.
        self._shadow = {}
        self._batch = []  # contiguous: (roles, attrs) of this timestamp's events
        self._watermark = 0
        self.pred_accesses = 0

    def _predecessors(self, r, attrs):
        """Positions of the kept events, up to the current timestamp, that
        may directly precede an ``r``-event with ``attrs``; ascending."""
        n = self._watermark
        picked = []
        for p, checks in self.plan.kept_preds[r]:
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
        if self._stale:
            self._trim()
        if time != self.time:
            if self.time is not None:  # the caller did not end it
                self.end_timestamp()
            self.time = time
        plan = self.plan
        cumulative = plan.cumulative
        if plan.cont:
            self._batch.append((roles, attrs))
        k = plan.k
        if width > self.width:
            if self.final_acc is not None:
                self.final_acc += plan.identity * (width - self.width)
            self.width = width
        size = self.width * k
        merges = plan.merges
        additive = plan.additive
        type_cells = self.type_cells
        shadow = self._shadow
        grown = 0  # slots added to the type cells and shadows
        out = []
        for r in roles:
            # Merging starts from the first type-grained predecessor rather
            # than from the identity; 0 + x is x for every slot value, since
            # sums start at integer 0 and so never hold -0.0. An absent cell,
            # and a vector's windows past its end, are the identity.
            pred = None
            for p in plan.type_preds[r]:
                prev = shadow.get(p)
                if prev is None:
                    prev = type_cells.get(p)
                self.pred_accesses += 1
                if prev:
                    pred = (
                        prev
                        if pred is None
                        else combine_cells(pred, prev, merges, additive)
                    )
            kept = self._predecessors(r, attrs) if plan.kept_preds[r] else ()
            if pred is None:
                pred = plan.identity * self.width
            elif len(pred) < size:
                pred = pred + plan.identity * ((size - len(pred)) // k)
            elif kept:  # merged in place below; pred may be a variable's cells
                pred = pred.copy()
            if kept:
                # A stored event's windows from the oldest open one on are
                # exactly the windows it shares with the new event.
                base = self.base
                events = self.events
                if additive:
                    for _, _, first, stored in map(events.__getitem__, kept):
                        c = stored[(base - first) * k :]
                        pred[: len(c)] = map(add, pred, c)
                else:
                    for _, _, first, stored in map(events.__getitem__, kept):
                        c = stored[(base - first) * k :]
                        pred[: len(c)] = combine_cells(pred[: len(c)], c, merges, False)
            if plan.consume:
                grown -= self._consume(r, kept)
            cell = absorb_cells(pred, plan.updates[r], attrs, r == plan.start, k)
            if r in plan.event_grained:
                self._keep(time, r, cell, attrs)
            else:
                old = type_cells.get(r)
                if r in shadow:  # updated earlier in this timestamp
                    grown -= len(old)
                else:  # its readable cells move to the shadow
                    shadow[r] = () if old is None else old
                    if not cumulative:
                        old = None
                new = cell if old is None else combine_cells(old, cell, merges, additive)
                type_cells[r] = new
                grown += len(new)
            if r == plan.end and self.final_acc is not None:
                self.final_acc = combine_cells(self.final_acc, cell, merges, additive)
            out.append((r, cell))
        if grown:
            self.entry_count += grown // k
        return out

    def _keep(self, time, r, cell, attrs):
        self.events.append((time, r, self.base, cell))
        self.roles.append(r)
        for a, column in self.columns.items():
            column.append(attrs.get(a, self._absent[a]))
        self.entry_count += self.width

    def _forget(self, positions):
        """Drop the kept events at ``positions``, given in ascending order."""
        for i in reversed(positions):
            _, _, first, cells = self.events[i]
            self.entry_count -= first + len(cells) // self.plan.k - self.base
            del self.events[i], self.roles[i]
            for column in self.columns.values():
                del column[i]

    def _consume(self, r, kept):
        """Skip-till-next-match: the chains an ``r``-event just read now
        end at it, so their former tips become unreadable. Returns the
        slots of the cells it drops."""
        gone = 0
        shadow = self._shadow
        for p in self.plan.type_preds[r]:
            if p in shadow:
                gone += len(shadow[p])
                shadow[p] = ()
            else:
                cells = self.type_cells.pop(p, None)
                if cells is not None:
                    gone += len(cells)
        if kept:
            self._forget(kept)
            self._watermark -= len(kept)
        return gone

    def end_timestamp(self):
        """End the current timestamp, once no event at it can come any
        more: drop the shadows (skip-till-any-match), merge them back into
        the cells (skip-till-next-match), or keep only what the timestamp
        passes on (contiguous). Returns the number of entries freed."""
        shadow = self._shadow
        if not shadow and not self._batch:  # no tie state to end
            self._watermark = len(self.events)
            self.time = None
            return 0
        if self._stale:  # _forget counts a kept event's windows from base
            self._trim()
        plan = self.plan
        before = self.entry_count
        if plan.cumulative:  # the shadows go
            for cells in shadow.values():
                self.entry_count -= len(cells) // plan.k
        else:
            type_cells = self.type_cells
            held = sum(map(len, chain(shadow.values(), type_cells.values())))
            if plan.consume:
                for r, readable in shadow.items():
                    if readable:
                        type_cells[r] = combine_cells(
                            readable, type_cells[r], plan.merges, plan.additive
                        )
            else:
                self._end_contiguous()
            held -= sum(map(len, self.type_cells.values()))
            self.entry_count -= held // plan.k
        shadow.clear()
        self._watermark = len(self.events)
        self.time = None
        return before - self.entry_count

    def _end_contiguous(self):
        """Contiguous semantics: only the timestamp just ended stays
        readable, and only the trends its events start when it held more
        than one event."""
        plan = self.plan
        if len(self._batch) > 1:
            self._forget(range(len(self.events)))
            type_cells = self.type_cells = {}
            start = plan.start
            for roles, attrs in self._batch:
                if start not in roles:
                    continue
                cell = absorb_cells(
                    plan.identity * self.width, plan.updates[start], attrs, True, plan.k
                )
                if start in plan.event_grained:
                    self._keep(self.time, start, cell, attrs)
                elif start in type_cells:
                    type_cells[start] = combine_cells(
                        type_cells[start], cell, plan.merges, plan.additive
                    )
                else:
                    type_cells[start] = cell
        else:
            self._forget(range(self._watermark))
            shadow = self._shadow
            self.type_cells = {r: c for r, c in self.type_cells.items() if r in shadow}
        self._batch.clear()

    def drop_front(self):
        """Close the oldest open window; ``_trim`` cuts it off later.
        Returns the number of entries freed."""
        k = self.plan.k
        at = self._stale * k  # where the closing window sits in the vectors
        self.width -= 1
        self.base += 1
        self._stale += 1
        events = self.events
        dead = self._dead
        # Every live kept event holds the window just closed. Their last
        # windows never decrease in arrival order, so the dead ones lead.
        freed = len(events) - dead
        base = self.base
        for _, _, first, cells in islice(events, dead, None):
            if first + len(cells) // k > base:
                break
            dead += 1
        self._dead = dead
        if self.type_cells or self._shadow:
            for cells in chain(self.type_cells.values(), self._shadow.values()):
                if len(cells) > at:  # it reaches the window just closed
                    freed += 1
        self.entry_count -= freed
        return freed

    def _trim(self):
        """Cut the windows closed since the last step off the vectors, and
        the kept events that hold none of the open ones. A type cell that
        ends in a closed window goes; a shadow stays, empty if it does."""
        cut = self._stale * self.plan.k
        self._stale = 0
        if self.type_cells:
            self.type_cells = {
                r: c[cut:] for r, c in self.type_cells.items() if len(c) > cut
            }
        if self._shadow:
            self._shadow = {r: c[cut:] for r, c in self._shadow.items()}
        if self.final_acc is not None:  # never handed out: cut in place
            del self.final_acc[:cut]
        dead = self._dead
        if dead:
            self._dead = 0
            del self.events[:dead], self.roles[:dead]
            for column in self.columns.values():
                del column[:dead]
            self._watermark = max(0, self._watermark - dead)

    def final_cell(self):
        k = self.plan.k
        at = self._stale * k
        acc = self.final_acc
        if acc is None:
            acc = self.type_cells.get(self.plan.end, ())
        return acc[at : at + k] or self.plan.identity.copy()

    def stored(self):
        """(time, role, cell) of every kept event, in the oldest window."""
        k = self.plan.k
        return [
            (t, r, c[(self.base - f) * k :][:k])
            for t, r, f, c in islice(self.events, self._dead, None)
        ]

    def entries(self):
        return self.entry_count


# The benchmark's tracer (``e2ebench/tracing.py``) wraps kernel classes by
# name and still names these two; drop the aliases once it no longer does.
TypeKernel = PatternKernel = MixedKernel
