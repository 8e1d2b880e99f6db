"""The query plan, its generated step, and the engine kernel: one class
for all three matching semantics.

``compile_query`` plans a query once into the ``CompiledQuery`` that every
kernel of a run shares: the tables and flags the kernel reads, and the
query's cell arithmetic (``cells.compile_cells``) and kernel step
(``compile_step``), generated as straight-line functions.

``MixedKernel`` runs every plan. It keeps one cell per type-grained
variable and, for each variable constrained by an adjacency predicate,
every event individually; type granularity is the case in which no
variable is event-grained, so the kernel keeps no events. The semantics
differ only in which predecessors an event may read (see ``MixedKernel``).
The kernel does no slot arithmetic of its own: it runs the query's
generated ``absorb`` of each variable an event plays, and its ``merge``,
which also takes two vectors that end at different windows (see
``cells.compile_cells``). Nor does it read the plan per event:
``compile_step`` generates each query's ``step`` once, with the plan's
tables and flags resolved into straight-line code and, on a key with one
open window, the absorb's and merge's one-window lines inline, and
``MixedKernel.step`` calls it.

A kernel holds the state of one partition key over all of that key's open
windows. Those windows are a contiguous run of window ids, ``base`` being
the oldest; a kernel built alone starts at 0. Cells are kept as flat cell
vectors holding one cell per open window, oldest first (see ``cells``), so
each event is applied once per key however many windows overlap. A new
kernel has one window open; the single-partition engine never opens or
closes another.

The step contract:

    step(time_ms, group, width=1) -> list of (role, cells, attrs)

``group`` holds the key's events at one timestamp, in arrival order, as
``(roles, attrs)`` pairs; each timestamp of the key is stepped once, in
time order. ``roles`` are the pattern variables an event may play,
already filtered by local predicates; an empty tuple marks an event that
cannot match (which only contiguous semantics cares about). ``width`` is
the number of windows the timestamp falls into. Every window the kernel
holds is one of them, oldest first, so the kernel opens ``width -
self.width`` new windows at the back before it applies the events; a
width not above the current one opens none. The result has one entry per
event and variable it plays, in order: the new cell vector.
``final_cell`` reads the oldest window and ``drop_front`` closes it.
Closing is bookkeeping only, and walks none of the kept events: the
closed windows stay at the front of the vectors, and the kept events that
hold no open window stay at the front of the kept events, until the next
``step`` trims them off in one pass. A kept event's end, the window id
past its last window, never decreases in arrival order, so a close finds
the newly dead events with one bisection of the ``ends`` column. A
kernel whose last window closes is discarded rather than trimmed.

Events with equal timestamps can never sit next to each other inside a
trend, so every event of a group reads the state as it stood before the
timestamp, and the group's new cells are written only after all of its
events have read. So the kernel holds no state for a timestamp once its
step returns.

A type-grained variable with no readable trends holds no cell: a new
kernel holds none, and a variable whose trends are consumed or cut off
loses its cell. Nor does opening a window extend a variable's cells: they
reach from the oldest open window to the newest one the variable was
updated in. An absent cell, and the windows past the end of a vector,
read as the identity cell, and merging the identity changes nothing:
counts add 0, sums never hold -0.0, and MIN and MAX skip ``None``.

``entry_count`` counts one entry per type cell vector per open window it
reaches, and one per kept event per open window that holds it, as if
every window kept its own state; closed windows not yet trimmed count for
nothing. ``step`` and ``drop_front`` keep it current, also through a
step that raises. ``snapshot()`` reads the trend counts of the oldest
open window and the entry count.
"""

from __future__ import annotations

import sys
from bisect import bisect_right
from collections import namedtuple
from itertools import chain, compress, islice, repeat
from operator import add, eq

from .cells import build_accumulators, compile_cells, identity_cell, unpack
from .errors import AggregateOverflow, MissingAttribute
from .query import Query, RoleProbe, Semantics, aggregate_names, classify_and_plan

CompiledQuery = namedtuple(
    "CompiledQuery",
    "probe start end event_grained final consume cont "
    "absorb merge readout additive source k identity type_preds kept_preds step",
)


def compile_query(query: Query, event_grained: frozenset | None = None) -> CompiledQuery:
    """Plan a query once; every kernel of a run shares the result.

    ``event_grained``, the variables whose events are kept individually,
    overrides the coarsest granularity that ``classify_and_plan`` picks.
    The fields past ``probe`` are what the kernel reads: ``final`` says
    whether finished trends need cells of their own (under
    skip-till-any-match a type-grained end variable's cells hold them),
    and ``consume`` and ``cont`` mark the other two semantics;
    ``absorb``, ``merge``, ``readout`` and ``additive`` come from
    ``cells.compile_cells``; ``type_preds`` and ``kept_preds`` split each
    variable's predecessors by granularity, and ``kept_preds`` pairs each
    event-grained one with its adjacency checks. A cell has ``k`` slots.
    ``step`` is the kernel step that ``compile_step`` generates from the
    other fields and the cells' one-window lines; ``source`` is the
    generated text of the cell functions and the step."""
    if event_grained is None:
        event_grained = classify_and_plan(query)
    template = query.template
    roles = tuple(sorted(template.types))
    preds = {r: tuple(sorted(template.pred_types[r])) for r in roles}
    theta = query.adjacency
    accs, extractors = build_accumulators(query.aggregates)
    code = compile_cells(
        accs, extractors, aggregate_names(query), roles, template.start_type
    )
    compiled = CompiledQuery(
        probe=RoleProbe(query),
        start=template.start_type,
        end=template.end_type,
        event_grained=event_grained,
        final=query.semantics is not Semantics.ANY or template.end_type in event_grained,
        consume=query.semantics is Semantics.NEXT,
        cont=query.semantics is Semantics.CONT,
        absorb=code.absorb,
        merge=code.merge,
        readout=code.readout,
        additive=code.additive,
        source=code.source,
        k=len(accs) + 1,
        identity=identity_cell(accs),
        type_preds={
            r: tuple(p for p in preds[r] if p not in event_grained) for r in roles
        },
        kept_preds={
            r: tuple(
                (p, theta.get((p, r), ())) for p in preds[r] if p in event_grained
            )
            for r in roles
        },
        step=None,
    )
    step, step_source = compile_step(compiled, code)
    return compiled._replace(step=step, source=code.source + step_source)


Snapshot = namedtuple("Snapshot", "final counts stored entries")


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
    Windows are numbered by window id; a kernel built alone starts at 0.
    So a kept event's first window stays valid as older windows close.

    Beside the kept events, the kernel keeps their variables, their ends
    and the left-hand operand of every adjacency check in columns, in
    arrival order. A new event selects its predecessors column by column:
    ``compress`` over the kept positions with ``map(op, column,
    repeat(value))`` as selector, one check after another, so that a kept
    event meets a check only if it passed the earlier ones. The selected
    events' cells are then merged in arrival order, into every window the
    two events share, so float sums do not depend on how the predecessors
    were selected. Under an additive plan each merge is one ``map(add, ...)``
    over the shared windows, with no call; otherwise the query's generated
    ``merge`` merges the shared windows.

    The predecessors an event may read - a type-grained variable's cells
    or a kept event - depend on the semantics:

    * skip-till-any-match: everything before the event's timestamp. A
      variable's cells then hold all of its trends, and the end variable's
      cells are the final ones.
    * skip-till-next-match: an open chain must take the first event that
      can extend it, so a predecessor leaves the readable state once an
      event reads it, also for the later events of the same timestamp.
      Chains whose tips play the same variable, or end at the same kept
      event, continue alike, so one cell per tip is exact. An event reads
      as every variable it plays before any of those reads consume, so a
      chain it can extend as two variables forks into both.
    * contiguous: only the events at the key's immediately preceding
      timestamp, unmatched ones included. When a timestamp holds more than
      one event, no trend can pass through it, so its events pass on only
      the trends they start.

    Under every semantics, the state of a variable other than the start
    that counts no trend in any open window is dropped (see ``_trim``), so
    no later event is checked against it. That is exact: such a cell is
    the identity there and nothing is added to a stored event later; under
    skip-till-next-match reading it would consume only itself, and under
    contiguous semantics the next step forgets it anyway.
    """

    def __init__(self, plan):
        self.plan = plan
        self._step = plan.step
        self.width = 1
        self.base = 0  # window id of the oldest open window
        self.type_cells = {}  # type-grained variable -> cells, if any
        self.events = []  # (time, role, first window, cells) in arrival order
        self.roles = []  # role of each kept event
        self.ends = []  # window id past the last window of each kept event
        self._one_role = len(plan.event_grained) == 1
        self._fading = set(plan.type_preds) - {plan.start}  # see ``_trim``
        self.columns = {
            a: [] for kept in plan.kept_preds.values() for _, checks in kept
            for a, _, _ in checks
        }
        self._absent = {a: _Absent(a) for a in self.columns}
        # The end variable's trends: in its type cells under
        # skip-till-any-match, otherwise merged here as they finish.
        self.final_acc = plan.identity.copy() if plan.final else None
        # (cell vector or kept event, open window) pairs.
        self.entry_count = 0
        self._stale = 0  # closed windows still at the front of the vectors
        self._dead = 0  # leading kept events that hold no open window
        self.pred_accesses = 0

    def _predecessors(self, r, attrs):
        """Positions of the kept events, all from earlier timestamps, that
        may directly precede an ``r``-event with ``attrs``; ascending."""
        n = len(self.events)
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

    def step(self, time, group, width=1):
        """Apply one timestamp's events, as the step contract above says,
        through the query's generated step (``compile_step``)."""
        return self._step(self, time, group, width)

    def _keep(self, time, r, cell, attrs):
        self.events.append((time, r, self.base, cell))
        self.roles.append(r)
        self.ends.append(self.base + self.width)
        for a, column in self.columns.items():
            column.append(attrs.get(a, self._absent[a]))
        self.entry_count += self.width

    def _forget(self, positions):
        """Drop the kept events at ``positions``, given in ascending order."""
        for i in reversed(positions):
            self.entry_count -= self.ends[i] - self.base
            del self.events[i], self.roles[i], self.ends[i]
            for column in self.columns.values():
                del column[i]

    def drop_front(self):
        """Close the oldest open window; ``_trim`` cuts it off later.
        Returns the number of entries freed. A kept event is kept with its
        end, ``base + width`` at the time, and neither closing a window nor
        opening one ever lowers ``base + width``; so the kept events that
        hold no open window are those up to the first whose end is past
        the new ``base``, and one bisection of ``ends`` finds them."""
        at = self._stale * self.plan.k  # where the closing window sits in the vectors
        self.width -= 1
        self.base += 1
        self._stale += 1
        # Every live kept event holds the window just closed.
        freed = len(self.events) - self._dead
        self._dead = bisect_right(self.ends, self.base, self._dead)
        for cells in self.type_cells.values():
            if len(cells) > at:  # it reaches the window just closed
                freed += 1
        self.entry_count -= freed
        return freed

    def _trim(self):
        """Cut the windows closed since the last step off the vectors, and
        the kept events that hold none of the open ones. A type cell that
        ends in a closed window goes. So does, under every semantics, the
        state of a variable other than the start that counts no trend in
        any open window: it reads like an absent cell and never changes,
        and every later event falls into the open windows. Under next a
        read would consume only it; under cont the next step forgets it."""
        k = self.plan.k
        cut = self._stale * k
        self._stale = 0
        fading = self._fading
        if self.type_cells:
            self.type_cells = cells = {
                r: c[cut:] for r, c in self.type_cells.items() if len(c) > cut
            }
            for r in fading.intersection(cells):
                if not any(cells[r][::k]):
                    self.entry_count -= len(cells.pop(r)) // k
        if self.final_acc is not None:  # never handed out: cut in place
            del self.final_acc[:cut]
        dead = self._dead
        if dead:
            self._dead = 0
            del self.events[:dead], self.roles[:dead], self.ends[:dead]
            for column in self.columns.values():
                del column[:dead]
        if fading and self.events:
            base = self.base
            self._forget([
                i for i, (_, r, first, c) in enumerate(self.events)
                if r in fading and not any(c[(base - first) * k :: k])
            ])

    def final_cell(self):
        k = self.plan.k
        at = self._stale * k
        acc = self.final_acc
        if acc is None:
            acc = self.type_cells.get(self.plan.end, ())
        return acc[at : at + k] or self.plan.identity.copy()

    def snapshot(self):
        """The trend counts of the oldest open window: ``final`` of the
        finished trends, ``counts`` of each type-grained variable that holds
        a cell there, and ``stored`` as (time, role, count) of each kept
        event; ``entries`` is the entry count of the whole state."""
        k = self.plan.k
        at = self._stale * k
        return Snapshot(
            final=self.final_cell()[0],
            counts={r: c[at] for r, c in self.type_cells.items() if len(c) > at},
            stored=[
                (t, r, c[(self.base - f) * k])
                for t, r, f, c in islice(self.events, self._dead, None)
            ],
            entries=self.entry_count,
        )


def compile_step(plan, cells):
    """The kernel step of one compiled query, as a generated function.

    ``step(kernel, time, group, width)`` does what the step contract above
    says, with the plan's tables and flags resolved once. It runs in two
    passes. The first reads: for each event of the group and variable it
    plays, a block per pattern variable reads its type-grained
    predecessors one by one, calls ``_predecessors`` only when it has kept
    ones, merges kept cells additively or by ``merge``, absorbs the event
    and feeds ``final_acc`` only where the plan has one; under
    skip-till-next-match, once every variable the event plays has read,
    one block drops what they read (``_consume_source``). The second
    writes the new cells: it keeps each new event of an event-grained
    variable, and merges the others into their variable's cells, in
    arrival order; under skip-till-next-match the readable cells left over
    are merged in front of them, and under contiguous semantics nothing
    older stays. On a vector of one window the blocks run the absorb's
    one-window lines and the merge's one-window expression that ``cells``
    (the query's ``cells.CellCode``) hands over, inline; on wider vectors
    they call the absorb and ``merge``, which run the same lines window by
    window. So a slot fails at the same point, with the same error, either
    way. Names enter the source only as ``repr()`` literals. Returns the
    function and its source."""
    k = plan.k
    roles = sorted(plan.type_preds)
    typed = any(r not in plan.event_grained for r in roles)
    lines = [
        "def step(self, time, group, width):",
        "    if self._stale:",
        "        self._trim()",
        "    w = self.width",
        "    if width > w:",
    ]
    if plan.final:
        lines.append("        self.final_acc += identity * (width - w)")
    lines.append("        self.width = w = width")
    if any(plan.type_preds.values()):
        lines.append(f"    size = w * {k}")
    if typed:
        lines += [
            "    type_cells = self.type_cells",
            "    grown = 0  # slots added to the type cells",
        ]
    lines += ["    out = []", "    for roles, attrs in group:"]
    kept = any(plan.kept_preds.values())
    if plan.consume and kept:
        lines.append("        read = []  # the kept events the event's roles read")
    lines.append("        for r in roles:")
    lines += _by_role(roles, 12, lambda n, r: _read_source(plan, cells, n, r))
    if plan.consume:
        lines += _consume_source(plan, roles, kept)
    # Every event has read: write the group's new cells.
    writes = "out"
    if plan.cont:
        writes = "writes"
        start = roles.index(plan.start)
        lines += [
            "    writes = out",
            "    if self.events:",
            "        self._forget(range(len(self.events)))",
        ]
        if typed:
            lines += [
                "    if type_cells:",
                "        grown -= sum(map(len, type_cells.values()))",
                "        self.type_cells = type_cells = {}",
            ]
        lines += [
            "    if len(group) > 1:  # no trend passes through this timestamp",
            "        writes = [",
            f"            ({plan.start!r}, absorb_{start}(identity * w, attrs), attrs)",
            "            for roles, attrs in group",
            f"            if {plan.start!r} in roles",
            "        ]",
        ]
    elif plan.consume and typed:
        lines += ["    readable = type_cells", "    self.type_cells = type_cells = {}"]
    lines.append(f"    for r, cell, attrs in {writes}:")
    lines += _by_role(roles, 8, lambda n, r: _write_source(plan, cells, r))
    if plan.consume and typed:
        lines += [
            "    for r, old in readable.items():  # what the timestamp left readable",
            "        new = type_cells.get(r)",
            "        if new is None:",
            "            type_cells[r] = old",
            "        else:",
            "            merged = type_cells[r] = merge(old, new)",
            "            grown += len(merged) - len(old) - len(new)",
        ]
    if typed:
        lines += ["    if grown:", f"        self.entry_count += grown // {k}"]
    lines += ["    return out", ""]
    source = "\n".join(lines)
    namespace = {
        "add": add,
        "AggregateOverflow": AggregateOverflow,
        "MissingAttribute": MissingAttribute,
        "merge": plan.merge,
        "identity": plan.identity,
    }
    namespace.update((f"absorb_{n}", plan.absorb[r]) for n, r in enumerate(roles))
    exec(compile(source, "<trendagg step>", "exec"), namespace)
    return namespace["step"], source


def _by_role(roles, depth, block):
    """The lines of ``block(n, r)`` for each variable ``r``, the ``n``-th
    in name order, each under its branch on the local ``r``, indented by
    ``depth``."""
    indent = " " * depth
    if len(roles) == 1:  # roles hold only the query's variables
        return [indent + line for line in block(0, roles[0])]
    lines = []
    for n, r in enumerate(roles):
        if n == len(roles) - 1:
            lines.append(indent + "else:")
        else:
            lines.append(indent + f"{'elif' if n else 'if'} r == {r!r}:")
        lines += [indent + "    " + line for line in block(n, r)]
    return lines


def _read_source(plan, cells, n, r):
    """The lines that read the predecessors of an ``r``-event and absorb
    it, ``r`` being the ``n``-th variable in name order."""
    k = plan.k
    type_preds = plan.type_preds[r]
    kept = bool(plan.kept_preds[r])
    lines = []
    if type_preds:
        # Merging starts from the first type-grained predecessor rather
        # than from the identity; 0 + x is x for every slot value, since
        # sums start at integer 0 and so never hold -0.0. An absent cell,
        # and a vector's windows past its end, are the identity.
        lines.append(f"self.pred_accesses += {len(type_preds)}")
        first, *rest = type_preds
        lines.append(f"pred = type_cells.get({first!r})")
        for p in rest:
            lines += [
                f"prev = type_cells.get({p!r})",
                "if prev:",
                "    pred = merge(pred, prev) if pred else prev",
            ]
    if kept:
        lines.append(f"kept = self._predecessors({r!r}, attrs)")
    if type_preds:
        lines += [
            "if not pred:",
            "    pred = identity * w",
            "elif len(pred) < size:",
            f"    pred = pred + identity * ((size - len(pred)) // {k})",
        ]
        if kept:  # merged in place below; pred may be a variable's cells
            lines += ["elif kept:", "    pred = pred.copy()"]
    else:
        lines.append("pred = identity * w")
    if kept:
        # A stored event's windows from the oldest open one on are exactly
        # the windows it shares with the new event.
        lines += [
            "if kept:",
            "    base = self.base",
            "    for _, _, first, stored in map(self.events.__getitem__, kept):",
            f"        c = stored[(base - first) * {k}:]",
            "        pred[:len(c)] = map(add, pred, c)"
            if plan.additive
            else "        pred[:len(c)] = merge(pred[:len(c)], c)",
        ]
    if plan.consume and kept:  # consumed once the event's roles have read
        lines.append("read += kept")
    # One window: the absorb's and the merge's one-window arithmetic,
    # inline; wider vectors call the absorb and ``merge``.
    one = [*cells.absorb_one[r], f"cell = [{', '.join(f'c{s}' for s in range(k))}]"]
    many = [f"cell = absorb_{n}(pred, attrs)"]
    if r == plan.end and plan.final:
        one += [
            unpack("f", k, "self.final_acc"),
            f"self.final_acc = {cells.merge_one('f', 'c')}",
        ]
        many.append("self.final_acc = merge(self.final_acc, cell)")
    return [
        *lines,
        "if w == 1:",
        *("    " + line for line in one),
        "else:",
        *("    " + line for line in many),
        f"out.append(({r!r}, cell, attrs))",
    ]


def _consume_source(plan, roles, kept):
    """The lines, under skip-till-next-match, that drop what an event read
    once every variable it plays has read: the chains it read now end at
    it. A variable's cells go for each variable it plays that reads them,
    and the kept events that any of them read, each once."""
    k = plan.k
    lines = []
    popping = [r for r in roles if plan.type_preds[r]]
    if popping:
        lines.append("        for r in roles:")
        for n, r in enumerate(popping):
            lines.append(f"            {'elif' if n else 'if'} r == {r!r}:")
            for p in plan.type_preds[r]:
                lines += [
                    f"                gone = type_cells.pop({p!r}, None)",
                    "                if gone:",
                    f"                    self.entry_count -= len(gone) // {k}",
                ]
    if kept:
        lines += ["        if read:", "            self._forget(sorted(set(read)))"]
    return lines


def _write_source(plan, cells, r):
    """The lines that write an ``r``-event's new ``cell``. A cell of a
    variable other than the start that counts no trend in any window is
    the identity and passes nothing on, so it is neither kept nor stored
    as a variable's first cell (see ``MixedKernel``)."""
    k = plan.k
    event_grained = r in plan.event_grained
    if event_grained:
        store = [f"self._keep(time, {r!r}, cell, attrs)"]
    else:
        store = [f"type_cells[{r!r}] = cell", "grown += len(cell)"]
    if r != plan.start:
        store = [f"if any(cell[::{k}]):", *("    " + line for line in store)]
    if event_grained:
        return store
    return [
        f"old = type_cells.get({r!r})",
        "if old is None:",
        *("    " + line for line in store),
        "elif w == 1:",
        "    " + unpack("o", k, "old"),
        "    " + unpack("c", k, "cell"),
        f"    type_cells[{r!r}] = {cells.merge_one('o', 'c')}",
        "else:",
        f"    new = type_cells[{r!r}] = merge(old, cell)",
        "    grown += len(new) - len(old)",
    ]


# Only the benchmark (``e2ebench/``) reads the names below: its tracer finds
# the kernel classes through ``get_backend()`` and wraps each by name. They
# go once the tracer wraps ``MixedKernel`` itself.
BACKEND_NAME = "python"
TypeKernel = PatternKernel = MixedKernel


def get_backend():
    return sys.modules[__name__]


def backend_name(module) -> str:
    return module.BACKEND_NAME
