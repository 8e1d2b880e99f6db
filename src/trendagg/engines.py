"""Engine facade: compiles a query and drives one kernel per partition key.

``compile_query`` plans a query once: granularity, kernel plan, aggregate
read-out and role probe. An Engine owns one kernel instance - the
incremental state of one partition key over its open windows - plus the
read-out of a window's aggregates and the accessors the tests read.
"""

from __future__ import annotations

from collections import namedtuple
from operator import add
from typing import NamedTuple

from ._kernels_py import MixedKernel
from .cells import (
    build_accumulators,
    event_updates,
    finalize,
    identity_cell,
    merge_functions,
)
from .events import Event
from .query import (
    Granularity,
    GranularityPlan,
    Query,
    RoleProbe,
    Semantics,
    aggregate_names,
    check_supported,
    classify_and_plan,
)

KernelPlan = namedtuple(
    "KernelPlan",
    "roles start end theta event_grained cumulative consume cont "
    "merges additive k identity updates type_preds kept_preds",
)


def build_kernel_plan(query: Query, plan: GranularityPlan) -> KernelPlan:
    """The tables every kernel of the query reads, built once per query
    rather than once per partition key. ``type_preds`` and ``kept_preds``
    split each variable's predecessors by granularity; ``kept_preds`` pairs
    each event-grained one with its adjacency checks. A cell has ``k`` slots;
    ``additive`` says that every one of them merges with ``add``."""
    template = query.template
    roles = tuple(sorted(template.types))
    preds = {r: tuple(sorted(template.pred_types[r])) for r in roles}
    theta = {}
    for p in query.adjacent_predicates:
        if p.prev_variable in template.pred_types.get(p.next_variable, ()):
            theta.setdefault((p.prev_variable, p.next_variable), []).append(
                (p.prev_attr, p.op.apply, p.next_attr)
            )
    theta = {k: tuple(v) for k, v in theta.items()}
    accs, _ = build_accumulators(query.aggregates)
    merges = merge_functions(accs)
    event_grained = plan.event_grained
    return KernelPlan(
        roles=roles,
        start=template.start_type,
        end=template.end_type,
        theta=theta,
        event_grained=event_grained,
        cumulative=query.semantics is Semantics.ANY,
        consume=query.semantics is Semantics.NEXT,
        cont=query.semantics is Semantics.CONT,
        merges=merges,
        additive=all(m is add for m in merges),
        k=len(merges),
        identity=identity_cell(accs),
        updates={r: event_updates(accs, r) for r in roles},
        type_preds={
            r: tuple(p for p in preds[r] if p not in event_grained) for r in roles
        },
        kept_preds={
            r: tuple(
                (p, theta.get((p, r), ())) for p in preds[r] if p in event_grained
            )
            for r in roles
        },
    )


class CompiledQuery(NamedTuple):
    """Everything an engine needs that depends on the query alone."""

    plan: GranularityPlan
    kplan: KernelPlan
    names: tuple  # each aggregate's RETURN-clause spelling
    extractors: tuple
    probe: RoleProbe


def compile_query(query: Query) -> CompiledQuery:
    """Plan a query once; every engine of a run shares the result."""
    check_supported(query)
    plan = classify_and_plan(query)
    _, extractors = build_accumulators(query.aggregates)
    return CompiledQuery(
        plan=plan,
        kplan=build_kernel_plan(query, plan),
        names=aggregate_names(query),
        extractors=extractors,
        probe=RoleProbe(query),
    )


class Engine:
    """Incremental aggregation state for one partition key.

    The state covers every open window of the key (see ``_kernels_py``).
    Built directly from a query, an engine is a single partition with one
    window that never closes.
    """

    def __init__(self, query: Query, compiled: CompiledQuery | None = None):
        self.query = query
        self.compiled = compiled if compiled is not None else compile_query(query)
        self.plan = self.compiled.plan
        self.kernel = MixedKernel(self.compiled.kplan)
        self.peak_entries = self.kernel.entries()

    @property
    def mode(self) -> Granularity:
        return self.plan.mode

    def step(self, event: Event):
        """Feed one event; returns the cells created for it in the oldest
        open window, one per variable it plays, and tracks
        ``peak_entries``. An event with a later time first ends the
        previous timestamp (the kernel does so as it steps)."""
        out = self.step_with_roles(event, self.compiled.probe(event))
        entries = self.kernel.entries()
        if entries > self.peak_entries:
            self.peak_entries = entries
        return [(r, cells[: self.compiled.kplan.k]) for r, cells in out]

    def step_with_roles(self, event: Event, roles, width: int = 1):
        """Feed one event that falls into ``width`` windows, the open ones
        first; returns the cell vectors created for it."""
        return self.kernel.step(event.time, roles, event.attrs, width)

    def run(self, events):
        for event in events:
            self.step(event)
        return self

    def entries(self) -> int:
        return self.kernel.entries()

    def results(self, cell=None) -> dict:
        """Aggregate values of the oldest open window, keyed by their
        RETURN-clause spelling; ``cell`` is that window's final cell, when
        the caller has read it already."""
        if cell is None:
            cell = self.kernel.final_cell()
        return finalize(cell, self.compiled.names, self.compiled.extractors)

    # ---- trace accessors, of the oldest open window (used by tests) ----

    @property
    def final_count(self):
        return self.kernel.final_cell()[0]

    def role_count(self, role):
        """Current per-variable trend count (type-grained cells only); a
        variable without cells has none."""
        kernel = self.kernel
        at = kernel._stale * kernel.plan.k
        cells = kernel.type_cells.get(role, ())
        return cells[at] if len(cells) > at else 0

    def stored_events(self):
        """(time, role, count) for retained events (mixed-grained only)."""
        return [(t, r, cell[0]) for (t, r, cell) in self.kernel.stored()]


def build_engine(query: Query) -> Engine:
    return Engine(query)
