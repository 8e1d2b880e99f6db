"""The interpreted kernel step: the reference that the ``step`` generated
by ``_kernels_py.compile_step`` is tested against. It reads the plan's
tables and flags on every event and walks every branch that any plan may
need; everything but ``step`` is ``MixedKernel``'s own."""

from operator import add

from trendagg._kernels_py import MixedKernel


class ReferenceKernel(MixedKernel):
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
        merge = plan.merge
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
                    pred = prev if pred is None else merge(pred, prev)
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
                        pred[: len(c)] = merge(pred[: len(c)], c)
            if plan.consume:
                grown -= self._consume(r, kept)
            cell = plan.absorb[r](pred, attrs)
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
                new = cell if old is None else merge(old, cell)
                type_cells[r] = new
                grown += len(new)
            if r == plan.end and self.final_acc is not None:
                self.final_acc = merge(self.final_acc, cell)
            out.append((r, cell))
        if grown:
            self.entry_count += grown // k
        return out
