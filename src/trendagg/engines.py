"""Engine facade: compiles a query and drives one kernel per partition key.

``compile_query`` plans a query once: granularity, kernel plan, aggregate
read-out and role probe. An Engine owns one kernel instance - the
incremental state of one partition key over its open windows - plus the
read-out of a window's aggregates and the accessors the tests read.
"""

from __future__ import annotations

from collections import namedtuple
from typing import NamedTuple

from ._kernels_py import MixedKernel, PatternKernel
from .cells import (
    build_accumulators,
    event_updates,
    finalize,
    merge_functions,
    window_cell,
)
from .errors import UnsupportedQuery
from .events import Event
from .query import (
    Granularity,
    GranularityPlan,
    Query,
    RoleProbe,
    Semantics,
    aggregate_names,
    classify_and_plan,
)

KernelPlan = namedtuple(
    "KernelPlan",
    "roles start end preds accs theta event_grained cont merges updates "
    "type_preds kept_preds",
)


def build_kernel_plan(query: Query, plan: GranularityPlan) -> KernelPlan:
    """The tables every kernel of the query reads, built once per query
    rather than once per partition key. ``type_preds`` and ``kept_preds``
    split each variable's predecessors by granularity; ``kept_preds`` pairs
    each event-grained one with its adjacency checks."""
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
    event_grained = plan.event_grained
    return KernelPlan(
        roles=roles,
        start=template.start_type,
        end=template.end_type,
        preds=preds,
        accs=accs,
        theta=theta,
        event_grained=event_grained,
        cont=query.semantics is Semantics.CONT,
        merges=merge_functions(accs),
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
    kernel: type
    names: tuple  # each aggregate's RETURN-clause spelling
    extractors: tuple
    probe: RoleProbe


def compile_query(query: Query) -> CompiledQuery:
    """Plan a query once; every engine of a run shares the result."""
    plan = classify_and_plan(query)
    if plan.mode is not Granularity.PATTERN:
        kernel = MixedKernel
    else:
        sources = list(query.aliases.values())
        if len(set(sources)) != len(sources):
            raise UnsupportedQuery(
                "single-match-state semantics cannot run a pattern that "
                "binds one stream type to several variables"
            )
        kernel = PatternKernel
    _, extractors = build_accumulators(query.aggregates)
    return CompiledQuery(
        plan=plan,
        kplan=build_kernel_plan(query, plan),
        kernel=kernel,
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
        self.kernel = self.compiled.kernel(self.compiled.kplan)
        self.peak_entries = self.kernel.entries()

    @property
    def mode(self) -> Granularity:
        return self.plan.mode

    def step(self, event: Event):
        """Feed one event; returns the cells created for it in the oldest
        open window (or None), and tracks ``peak_entries``."""
        out = self.step_with_roles(event, self.compiled.probe(event))
        entries = self.kernel.entries()
        if entries > self.peak_entries:
            self.peak_entries = entries
        if out is None:
            return None
        return [(r, window_cell(cells, 0)) for r, cells in out]

    def step_with_roles(self, event: Event, roles, width: int = 1):
        """Feed one event that falls into ``width`` windows, the open ones
        first; returns the cell vectors created for it (or None)."""
        return self.kernel.step(event.time, roles, event.attrs, width)

    def run(self, events):
        for event in events:
            self.step(event)
        return self

    def entries(self) -> int:
        return self.kernel.entries()

    def results(self) -> dict:
        """Aggregate values of the oldest open window, keyed by their
        RETURN-clause spelling."""
        return finalize(
            self.kernel.final_cell(), self.compiled.names, self.compiled.extractors
        )

    def drop_window(self):
        """Forget the oldest open window."""
        self.kernel.drop_front()

    # ---- trace accessors, of the oldest open window (used by tests) ----

    @property
    def final_count(self):
        return self.kernel.final_cell()[0]

    def role_count(self, role):
        """Current per-variable trend count (type-grained cells only)."""
        if self.mode is Granularity.PATTERN:
            raise ValueError("pattern-grained state has no per-variable cells")
        return self.kernel.type_cells[role][0][0]

    @property
    def last_count(self):
        """Trend count of the last matched event (pattern-grained only)."""
        if self.mode is not Granularity.PATTERN:
            raise ValueError("only pattern-grained state tracks a last event")
        return self.kernel.last_count()

    def stored_events(self):
        """(time, role, count) for retained events (mixed-grained only)."""
        if self.mode is not Granularity.MIXED:
            return []
        return [(t, r, cell[0]) for (t, r, cell) in self.kernel.stored()]


def build_engine(query: Query) -> Engine:
    return Engine(query)
