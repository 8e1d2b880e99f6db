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
reads the oldest window and ``drop_front`` closes it. Closing is
bookkeeping only: the closed windows stay at the front of the vectors,
and the kept events that hold no open window stay at the front of the
kept events, until the next ``step`` trims them off in one pass. A kernel
whose last window closes is discarded rather than trimmed. Events must
arrive in non-decreasing time order.

Events with equal timestamps can never sit next to each other inside a
trend, so all events sharing a timestamp are evaluated against the state as
it stood before the first of them ("shadow" copies keep the pre-batch cells
of every variable already updated in the current batch).

``entries()`` counts one entry per cell held per open window, as if every
window kept its own state; closed windows not yet trimmed count for
nothing.
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
    timestamp added; when the next timestamp begins the two are merged
    (``next``) or the shadow is dropped (``cont``).
    """

    def __init__(self, plan):
        self.plan = plan
        self.width = 1
        self.base = 0  # number of the oldest open window
        self.type_cells = {
            r: plan.identity.copy() for r in plan.roles if r not in plan.event_grained
        }
        self.events = []  # (time, role, first window, cells) in arrival order
        self.roles = []  # role of each kept event
        self._one_role = len(plan.roles) - len(self.type_cells) == 1
        self.columns = {a: [] for checks in plan.theta.values() for a, _, _ in checks}
        self._absent = {a: _Absent(a) for a in self.columns}
        # The end variable's trends: in its type cells under
        # skip-till-any-match, otherwise merged here as they finish.
        self.final_acc = (
            None
            if plan.cumulative and plan.end in self.type_cells
            else plan.identity.copy()
        )
        self._held = 0  # (kept event, open window) pairs
        self._stale = 0  # closed windows still at the front of the vectors
        self._dead = 0  # leading kept events that hold no open window
        self._shadow = {}
        self._batch = []  # contiguous: (roles, attrs) of this timestamp's events
        self._batch_time = -1
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
        plan = self.plan
        cumulative = plan.cumulative
        if time != self._batch_time:
            if not cumulative:
                self._end_timestamp()
            self._shadow.clear()
            self._batch_time = time
            self._watermark = len(self.events)
        if not cumulative and plan.cont:
            self._batch.append((roles, attrs))
        if width > self.width:
            extra = plan.identity * (width - self.width)
            self.type_cells = {r: c + extra for r, c in self.type_cells.items()}
            if self.final_acc is not None:
                self.final_acc += extra
            self.width = width
        merges = plan.merges
        additive = plan.additive
        k = plan.k
        base = self.base
        events = self.events
        type_cells = self.type_cells
        shadow = self._shadow
        out = []
        for r in roles:
            # Merging starts from the first type-grained predecessor rather
            # than from the identity; 0 + x is x for every slot value, since
            # sums start at integer 0 and so never hold -0.0.
            pred = None
            for p in plan.type_preds[r]:
                prev = shadow.get(p)
                if prev is None:
                    prev = type_cells[p]
                if pred is not None:
                    prev = combine_cells(pred, prev, merges, additive)
                pred = prev
                self.pred_accesses += 1
            kept = self._predecessors(r, attrs) if plan.kept_preds[r] else ()
            if kept:
                # Merged in place below, and pred may be a variable's cells.
                pred = plan.identity * self.width if pred is None else pred.copy()
                # A stored event's windows from the oldest open one on are
                # exactly the windows it shares with the new event.
                if additive:
                    for _, _, first, stored in map(events.__getitem__, kept):
                        c = stored[(base - first) * k :]
                        pred[: len(c)] = map(add, pred, c)
                else:
                    for _, _, first, stored in map(events.__getitem__, kept):
                        c = stored[(base - first) * k :]
                        pred[: len(c)] = combine_cells(pred[: len(c)], c, merges, False)
            elif pred is None:
                pred = plan.identity * self.width
            if not cumulative and plan.consume:
                self._consume(r, kept)
            cell = absorb_cells(pred, plan.updates[r], attrs, r == plan.start, k)
            if r not in type_cells:
                self._keep(time, r, cell, attrs)
            elif r in shadow:
                type_cells[r] = combine_cells(type_cells[r], cell, merges, additive)
            else:
                shadow[r] = type_cells[r]
                type_cells[r] = (
                    combine_cells(type_cells[r], cell, merges, additive)
                    if cumulative
                    else cell
                )
            if r == plan.end and self.final_acc is not None:
                self.final_acc = combine_cells(self.final_acc, cell, merges, additive)
            out.append((r, cell))
        return out

    def _keep(self, time, r, cell, attrs):
        self.events.append((time, r, self.base, cell))
        self.roles.append(r)
        for a, column in self.columns.items():
            column.append(attrs.get(a, self._absent[a]))
        self._held += self.width

    def _forget(self, positions):
        """Drop the kept events at ``positions``, given in ascending order."""
        for i in reversed(positions):
            _, _, first, cells = self.events[i]
            self._held -= first + len(cells) // self.plan.k - self.base
            del self.events[i], self.roles[i]
            for column in self.columns.values():
                del column[i]

    def _consume(self, r, kept):
        """Skip-till-next-match: the chains an ``r``-event just read now
        end at it, so their former tips become unreadable."""
        for p in self.plan.type_preds[r]:
            gone = self.plan.identity * self.width
            if p in self._shadow:
                self._shadow[p] = gone
            else:
                self.type_cells[p] = gone
        if kept:
            self._forget(kept)
            self._watermark -= len(kept)

    def _end_timestamp(self):
        """Skip-till-next-match and contiguous semantics, as a new timestamp
        begins: leave readable what the timestamp just ended passes on."""
        plan = self.plan
        if plan.consume:
            for r, readable in self._shadow.items():
                self.type_cells[r] = combine_cells(
                    readable, self.type_cells[r], plan.merges, plan.additive
                )
            return
        # Contiguous: only the timestamp just ended stays readable, and only
        # the trends its events start when it held more than one event.
        width = self.width
        if len(self._batch) > 1:
            self._forget(range(len(self.events)))
            for r in self.type_cells:
                self.type_cells[r] = plan.identity * width
            start = plan.start
            for roles, attrs in self._batch:
                if start not in roles:
                    continue
                cell = absorb_cells(
                    plan.identity * width, plan.updates[start], attrs, True, plan.k
                )
                if start in self.type_cells:
                    self.type_cells[start] = combine_cells(
                        self.type_cells[start], cell, plan.merges, plan.additive
                    )
                else:
                    self._keep(self._batch_time, start, cell, attrs)
        else:
            self._forget(range(self._watermark))
            for r in self.type_cells:
                if r not in self._shadow:
                    self.type_cells[r] = plan.identity * width
        self._batch.clear()

    def drop_front(self):
        """Close the oldest open window; ``_trim`` cuts it off later."""
        self.width -= 1
        self.base += 1
        self._stale += 1
        events = self.events
        dead = self._dead
        # Every live kept event holds the window just closed. Their last
        # windows never decrease in arrival order, so the dead ones lead.
        self._held -= len(events) - dead
        k = self.plan.k
        base = self.base
        for _, _, first, cells in islice(events, dead, None):
            if first + len(cells) // k > base:
                break
            dead += 1
        self._dead = dead

    def _trim(self):
        """Cut the windows closed since the last step off the vectors, and
        the kept events that hold none of the open ones."""
        cut = self._stale * self.plan.k
        self._stale = 0
        if self.type_cells:
            self.type_cells = {r: c[cut:] for r, c in self.type_cells.items()}
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
            acc = self.type_cells[self.plan.end]
        return acc[at : at + k]

    def stored(self):
        """(time, role, cell) of every kept event, in the oldest window."""
        k = self.plan.k
        return [
            (t, r, c[(self.base - f) * k :][:k])
            for t, r, f, c in islice(self.events, self._dead, None)
        ]

    def entries(self):
        return self.width * (len(self.type_cells) + len(self._shadow)) + self._held


# The benchmark's tracer (``e2ebench/tracing.py``) wraps kernel classes by
# name and still names these two; drop the aliases once it no longer does.
TypeKernel = PatternKernel = MixedKernel
