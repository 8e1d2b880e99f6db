"""The interpreted kernel step: the reference that the ``step`` generated
by ``kernels.compile_step`` is tested against. It reads the plan's
tables and flags on every event, walks every branch that any plan may
need, and counts the type cells' entries from their lengths rather than
slot by slot. Its ``drop_front`` finds the kept events that a close
leaves dead by walking them, from their first windows and cells, where
``MixedKernel`` bisects its ``ends`` column; everything else is
``MixedKernel``'s own. ``recount`` counts a kernel's entries from its
state."""

from itertools import islice
from operator import add

from trendagg.kernels import MixedKernel


def _slots(type_cells):
    return sum(map(len, type_cells.values()))


def recount(kernel):
    """A kernel's entries counted from its state: each type cell once per
    open window it reaches, each kept event once per open window that
    holds it."""
    k = kernel.plan.k
    cells = sum(max(0, len(v) // k - kernel._stale) for v in kernel.type_cells.values())
    held = sum(max(0, f + len(c) // k - kernel.base) for _, _, f, c in kernel.events)
    return cells + held


class ReferenceKernel(MixedKernel):
    def drop_front(self):
        k = self.plan.k
        at = self._stale * k
        self.width -= 1
        self.base += 1
        self._stale += 1
        dead = self._dead
        freed = len(self.events) - dead
        for _, _, first, cells in islice(self.events, dead, None):
            if first + len(cells) // k > self.base:
                break
            dead += 1
        self._dead = dead
        freed += sum(len(cells) > at for cells in self.type_cells.values())
        self.entry_count -= freed
        return freed

    def step(self, time, group, width=1):
        if self._stale:
            self._trim()
        plan = self.plan
        k = plan.k
        if width > self.width:
            if self.final_acc is not None:
                self.final_acc += plan.identity * (width - self.width)
            self.width = width
        size = self.width * k
        merge = plan.merge
        held = _slots(self.type_cells)
        # Every event of the group reads the state as it stood before the
        # timestamp, less what earlier events consumed under next; an event
        # consumes only once each variable it plays has read.
        out = []
        for roles, attrs in group:
            read = set()  # the kept events the event's roles read
            for r in roles:
                # Merging starts from the first type-grained predecessor
                # rather than from the identity; 0 + x is x for every slot
                # value, since sums start at integer 0 and so never hold
                # -0.0. An absent cell, and a vector's windows past its
                # end, are the identity.
                pred = None
                for p in plan.type_preds[r]:
                    prev = self.type_cells.get(p)
                    self.pred_accesses += 1
                    if prev:
                        pred = prev if pred is None else merge(pred, prev)
                kept = self._predecessors(r, attrs) if plan.kept_preds[r] else ()
                if pred is None:
                    pred = plan.identity * self.width
                elif len(pred) < size:
                    pred = pred + plan.identity * ((size - len(pred)) // k)
                elif kept:  # merged in place below; pred may be a variable's cells
                    pred = pred.copy()
                for i in kept:
                    # A stored event's windows from the oldest open one on
                    # are exactly the windows it shares with the new event.
                    _, _, first, stored = self.events[i]
                    c = stored[(self.base - first) * k :]
                    if plan.additive:
                        pred[: len(c)] = map(add, pred, c)
                    else:
                        pred[: len(c)] = merge(pred[: len(c)], c)
                read.update(kept)
                cell = plan.absorb[r](pred, attrs)
                if r == plan.end and self.final_acc is not None:
                    self.final_acc = merge(self.final_acc, cell)
                out.append((r, cell, attrs))
            if plan.consume:  # every role has read: the chains read end here
                for r in roles:
                    for p in plan.type_preds[r]:
                        gone = self.type_cells.pop(p, ())
                        self.entry_count -= len(gone) // k
                        held -= len(gone)
                self._forget(sorted(read))
        # Then the group's new cells are written, in arrival order.
        writes = out
        readable = {}
        if plan.cont:  # only this timestamp stays readable
            self._forget(range(len(self.events)))
            self.type_cells = {}
            if len(group) > 1:  # and only the trends its events start
                start = plan.start
                writes = [
                    (start, plan.absorb[start](plan.identity * self.width, attrs), attrs)
                    for roles, attrs in group
                    if start in roles
                ]
        elif plan.consume:  # written first, the leftover readable cells merged in front
            readable, self.type_cells = self.type_cells, {}
        for r, cell, attrs in writes:
            on_trend = r == plan.start or any(cell[::k])
            if r in plan.event_grained:
                if on_trend:
                    self._keep(time, r, cell, attrs)
            elif r in self.type_cells:
                self.type_cells[r] = merge(self.type_cells[r], cell)
            elif on_trend:
                self.type_cells[r] = cell
        for r, old in readable.items():
            new = self.type_cells.get(r)
            self.type_cells[r] = old if new is None else merge(old, new)
        self.entry_count += (_slots(self.type_cells) - held) // k
        return out
