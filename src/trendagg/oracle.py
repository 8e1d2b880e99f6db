"""Reference implementation: enumerate trends explicitly, then aggregate.

This is the two-step ground truth the incremental engines are checked
against. It is deliberately simple and exponential; a configurable cap
turns runaway enumerations into errors instead of hangs.

Semantics, in operational terms:

* skip-till-any-match: between trend events anything may be skipped, so
  every event is both taken and not taken (depth-first over both choices).
* skip-till-next-match: an event that can extend an open match must extend
  it - only irrelevant events are skipped. Each start-variable event opens
  one deterministic chain; the chain consumes every later event adjacent to
  its tip and a finished trend is recorded each time the tip passes the end
  variable.
* contiguous: additionally, nothing at all may lie strictly between a
  trend's first and last event. Implemented as the gap-free filter over the
  skip-till-any-match set, which provably selects the same trends as
  filtering the skip-till-next-match set (a gap-free trend occupies its
  whole time span, so its chain is forced to reconstruct it).

The input to the contiguous enumeration must be the partition's raw event
sequence - events that fail local predicates still break contiguity.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import ExplosionGuard, MissingAttribute, UnsupportedQuery
from .query import AggKind, Query, RoleProbe, Semantics, check_adjacent

DEFAULT_CAP = 1_000_000

Occurrence = namedtuple("Occurrence", "index variable event")


class Trend:
    """One finished trend: events in order, each with the variable it plays."""

    __slots__ = ("occurrences", "_key")

    def __init__(self, occurrences):
        self.occurrences = tuple(occurrences)
        self._key = tuple((o.index, o.variable) for o in self.occurrences)

    @property
    def start(self):
        return self.occurrences[0]

    @property
    def end(self):
        return self.occurrences[-1]

    def indices(self):
        return frozenset(o.index for o in self.occurrences)

    def __len__(self):
        return len(self.occurrences)

    def __iter__(self):
        return iter(self.occurrences)

    def __eq__(self, other):
        return isinstance(other, Trend) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __lt__(self, other):
        return self._key < other._key

    def __repr__(self):
        inner = ", ".join(
            f"{o.variable}@{o.event.time}" for o in self.occurrences
        )
        return f"({inner})"


def _matchable(events, query):
    probe = RoleProbe(query)
    out = []
    for i, ev in enumerate(events):
        for variable in probe(ev):
            out.append(Occurrence(i, variable, ev))
    return out


def _adjacent(query, prev: Occurrence, nxt: Occurrence) -> bool:
    return check_adjacent(
        query.template,
        query.predicates,
        prev.event,
        nxt.event,
        prev_variable=prev.variable,
        next_variable=nxt.variable,
    )


def enumerate_any(events, query: Query, cap: int = DEFAULT_CAP) -> set:
    """All finished trends under skip-till-any-match."""
    template = query.template
    candidates = _matchable(events, query)
    trends = set()

    def extend(stack, last):
        if last.variable == template.end_type:
            if len(trends) >= cap:
                raise ExplosionGuard(cap)
            trends.add(Trend(stack))
        for occ in candidates:
            if occ.index <= last.index:
                continue
            if _adjacent(query, last, occ):
                stack.append(occ)
                extend(stack, occ)
                stack.pop()

    for occ in candidates:
        if occ.variable == template.start_type:
            extend([occ], occ)
    return trends


def enumerate_next(events, query: Query, cap: int = DEFAULT_CAP) -> set:
    """All finished trends under skip-till-next-match."""
    template = query.template
    candidates = _matchable(events, query)
    by_index = {}
    for occ in candidates:
        by_index.setdefault(occ.index, []).append(occ)
    if any(len(group) > 1 for group in by_index.values()):
        raise UnsupportedQuery(
            "skip-till-next-match needs an unambiguous variable per event"
        )
    trends = set()
    for k, first in enumerate(candidates):
        if first.variable != template.start_type:
            continue
        chain = [first]
        if first.variable == template.end_type:
            if len(trends) >= cap:
                raise ExplosionGuard(cap)
            trends.add(Trend(chain))
        for occ in candidates[k + 1:]:
            if _adjacent(query, chain[-1], occ):
                chain.append(occ)
                if occ.variable == template.end_type:
                    if len(trends) >= cap:
                        raise ExplosionGuard(cap)
                    trends.add(Trend(chain))
    return trends


def enumerate_cont(events, query: Query, cap: int = DEFAULT_CAP) -> set:
    """All finished trends under contiguous semantics.

    ``events`` must be the partition's full sequence: an event that cannot
    match anything still breaks contiguity when it falls strictly inside a
    trend's time span.
    """
    times = [ev.time for ev in events]
    out = set()
    for tr in enumerate_any(events, query, cap=cap):
        lo = tr.start.event.time
        hi = tr.end.event.time
        used = tr.indices()
        if all(
            not (lo < t < hi) or i in used
            for i, t in enumerate(times)
        ):
            out.add(tr)
    return out


_ENUMERATORS = {
    Semantics.ANY: enumerate_any,
    Semantics.NEXT: enumerate_next,
    Semantics.CONT: enumerate_cont,
}


def enumerate_trends(events, query: Query, cap: int = DEFAULT_CAP) -> set:
    return _ENUMERATORS[query.semantics](events, query, cap=cap)


def aggregate_trends(trends, specs) -> dict:
    """Fold a finished trend set into the requested aggregate values.

    Trends are visited in a canonical order so float sums come out the same
    on every run.
    """
    ordered = sorted(trends)
    out = {}
    for spec in specs:
        if spec.kind is AggKind.COUNT_STAR:
            out[str(spec)] = len(ordered)
            continue
        count = 0
        total = 0
        low = None
        high = None
        for tr in ordered:
            for occ in tr:
                if occ.variable != spec.variable:
                    continue
                count += 1
                if spec.attr is not None:
                    try:
                        value = occ.event.attrs[spec.attr]
                    except KeyError:
                        raise MissingAttribute(
                            f"aggregate needs {spec.variable}.{spec.attr}, "
                            f"absent on event"
                        ) from None
                    total += value
                    if low is None or value < low:
                        low = value
                    if high is None or value > high:
                        high = value
        if spec.kind is AggKind.COUNT:
            out[str(spec)] = count
        elif spec.kind is AggKind.SUM:
            out[str(spec)] = total
        elif spec.kind is AggKind.MIN:
            out[str(spec)] = low
        elif spec.kind is AggKind.MAX:
            out[str(spec)] = high
        else:  # AVG
            out[str(spec)] = None if count == 0 else total / count
    return out
