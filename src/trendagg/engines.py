"""Engine facade: compiles a query and drives one kernel per partition key.

``compile_query`` plans a query once into one ``CompiledQuery``: the
granularity, the role probe, the tables every kernel of the query reads,
and the query's cell arithmetic and kernel step, generated as
straight-line functions (``cells.compile_cells``: one ``absorb`` per
pattern variable, one ``merge`` and one ``readout``;
``_kernels_py.compile_step``: one ``step``). An Engine, built as
``Engine(query)`` or from a shared ``CompiledQuery``, owns one kernel
instance - the incremental state of one partition key over its open
windows - plus the read-out of a window's aggregates. It is fed one
timestamp at a time: all of the key's events at that time in one step, as
``WindowManager`` feeds it, or a whole stream through ``run``, which
groups the events by time. The kernel's ``snapshot()`` shows that state.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import groupby
from operator import attrgetter

from ._kernels_py import MixedKernel, compile_step
from .cells import build_accumulators, compile_cells, identity_cell
from .query import Query, RoleProbe, Semantics, aggregate_names, classify_and_plan


CompiledQuery = namedtuple(
    "CompiledQuery",
    "probe start end event_grained final consume cont "
    "absorb merge readout additive source k identity type_preds kept_preds step",
)


def compile_query(query: Query, event_grained: frozenset | None = None) -> CompiledQuery:
    """Plan a query once; every engine of a run shares the result.

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
    ``step`` is the kernel step that ``_kernels_py.compile_step`` generates
    from the other fields and the cells' one-window lines; ``source`` is
    the generated text of the cell functions and the step."""
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


class Engine:
    """Incremental aggregation state for one partition key.

    The state covers every open window of the key (see ``_kernels_py``).
    Built directly from a query, an engine is a single partition with one
    window that never closes.
    """

    def __init__(self, query: Query, compiled: CompiledQuery | None = None):
        self.compiled = compiled if compiled is not None else compile_query(query)
        self.kernel = MixedKernel(self.compiled)
        self.peak_entries = self.kernel.entry_count

    def step(self, events):
        """Feed the events of one timestamp, a non-empty list, as one
        step; returns the cells created for them in the oldest open
        window, one ``(role, cell)`` per event and variable it plays, in
        order, and tracks ``peak_entries``."""
        probe = self.compiled.probe
        group = [(probe(event), event.attrs) for event in events]
        out = self.step_with_roles(events[0].time, group)
        entries = self.kernel.entry_count
        if entries > self.peak_entries:
            self.peak_entries = entries
        return [(r, cells[: self.compiled.k]) for r, cells, _ in out]

    def step_with_roles(self, time: int, group, width: int = 1):
        """Feed the events at ``time``, as ``(roles, attrs)`` pairs, that
        fall into ``width`` windows, the open ones first; returns what the
        kernel step returns."""
        return self.kernel.step(time, group, width)

    def run(self, events):
        """Feed a time-ordered stream, one timestamp per step."""
        for _, tied in groupby(events, attrgetter("time")):
            self.step(list(tied))
        return self

    def results(self, cell=None) -> dict:
        """Aggregate values of the oldest open window, keyed by their
        RETURN-clause spelling; ``cell`` is that window's final cell, when
        the caller has read it already."""
        if cell is None:
            cell = self.kernel.final_cell()
        return self.compiled.readout(cell)
