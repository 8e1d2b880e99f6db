"""Reference implementation: enumerate trends explicitly, then aggregate.

This is the two-step ground truth the incremental engines are checked
against. It is deliberately simple and exponential; a cap on the trends
one call yields turns runaway enumerations into errors instead of hangs.
A trend is a tuple of ``Occurrence``: the events in order, each with the
variable it plays. Trends are yielded one at a time and folded as they
come, so memory follows the events and the pattern depth, not the number
of trends.

Trends come in canonical order, ascending by their ``(index, variable)``
keys, without a sort: the candidates are listed in that order, a trend is
yielded before its extensions, and the extensions of one trend are tried
in candidate order. So float sums are added in the same order on every run.

Semantics, in operational terms:

* skip-till-any-match: between trend events anything may be skipped, so
  every event is both taken and not taken (depth-first over both choices).
* skip-till-next-match: an event that can extend an open match must extend
  it - only irrelevant events are skipped. Each start-variable event opens
  one deterministic chain; the chain consumes every later event adjacent to
  its tip and a finished trend is recorded each time the tip passes the end
  variable.
* contiguous: additionally, nothing at all may lie strictly between a
  trend's first and last event. The skip-till-any-match search is pruned:
  ``last`` is extended by ``occ`` only if no event time lies strictly
  between theirs and, unless ``last`` is the trend's first event, no other
  event shares its time. Adjacent trend events have strictly increasing
  times, so a trend holds one event per timestamp and cannot hold a tie
  inside its span. The prune keeps exactly the gap-free trends, and every
  prefix of a gap-free trend is gap-free, so the search reaches them all.

The input to the contiguous enumeration must be the partition's raw event
sequence - events that fail local predicates still break contiguity.
"""

from __future__ import annotations

from collections import Counter, namedtuple

from .errors import ExplosionGuard, MissingAttribute, UnsupportedQuery
from .query import AggKind, Query, RoleProbe, Semantics, check_adjacent

DEFAULT_CAP = 1_000_000

Occurrence = namedtuple("Occurrence", "index variable event")


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


def _search(events, query: Query, cap: int, contiguous: bool):
    """Skip-till-any-match trends by depth-first search, pruned to the
    gap-free ones when ``contiguous``."""
    template = query.template
    candidates = _matchable(events, query)
    times = sorted({ev.time for ev in events})
    following = dict(zip(times, times[1:]))
    ties = Counter(ev.time for ev in events)

    def may_follow(trend, occ):
        if not trend:
            return occ.variable == template.start_type
        last = trend[-1]
        if contiguous and (
            occ.event.time != following.get(last.event.time)
            or len(trend) > 1 and ties[last.event.time] > 1
        ):
            return False
        return _adjacent(query, last, occ)

    n = len(candidates)
    found = 0
    trend = []
    # untried[d] runs over the candidate positions still to try as the
    # trend's event d; the last entry is for the event after the trend.
    untried = [iter(range(n))]
    while untried:
        for j in untried[-1]:
            occ = candidates[j]
            if may_follow(trend, occ):
                trend.append(occ)
                untried.append(iter(range(j + 1, n)))
                if occ.variable == template.end_type:
                    if found >= cap:
                        raise ExplosionGuard(cap)
                    found += 1
                    yield tuple(trend)
                break
        else:
            untried.pop()
            if trend:
                trend.pop()


def enumerate_any(events, query: Query, cap: int = DEFAULT_CAP):
    """All finished trends under skip-till-any-match, in canonical order."""
    return _search(events, query, cap, contiguous=False)


def enumerate_next(events, query: Query, cap: int = DEFAULT_CAP):
    """All finished trends under skip-till-next-match, in canonical order."""
    template = query.template
    candidates = _matchable(events, query)
    if len({occ.index for occ in candidates}) < len(candidates):
        raise UnsupportedQuery(
            "skip-till-next-match needs an unambiguous variable per event"
        )
    found = 0
    for k, first in enumerate(candidates):
        if first.variable != template.start_type:
            continue
        chain = []
        for occ in candidates[k:]:
            if chain and not _adjacent(query, chain[-1], occ):
                continue
            chain.append(occ)
            if occ.variable == template.end_type:
                if found >= cap:
                    raise ExplosionGuard(cap)
                found += 1
                yield tuple(chain)


def enumerate_cont(events, query: Query, cap: int = DEFAULT_CAP):
    """All finished trends under contiguous semantics, in canonical order.

    ``events`` must be the partition's full sequence: an event that cannot
    match anything still breaks contiguity when it falls strictly inside a
    trend's time span.
    """
    return _search(events, query, cap, contiguous=True)


_ENUMERATORS = {
    Semantics.ANY: enumerate_any,
    Semantics.NEXT: enumerate_next,
    Semantics.CONT: enumerate_cont,
}


def enumerate_trends(events, query: Query, cap: int = DEFAULT_CAP):
    """An iterator over the query's trends in ``events``, in canonical order."""
    return _ENUMERATORS[query.semantics](events, query, cap=cap)


def aggregate_trends(trends, specs) -> dict:
    """Fold trends into the requested aggregate values, in one pass and in
    the order given, which the enumerators make canonical."""
    trends_seen = 0
    folds = [[0, 0, None, None] for _ in specs]  # count, total, low, high
    for trend in trends:
        trends_seen += 1
        for spec, fold in zip(specs, folds):
            for occ in trend:
                if occ.variable != spec.variable:
                    continue
                fold[0] += 1
                if spec.attr is None:
                    continue
                try:
                    value = occ.event.attrs[spec.attr]
                except KeyError:
                    raise MissingAttribute(
                        f"aggregate needs {spec.variable}.{spec.attr}, "
                        f"absent on event"
                    ) from None
                fold[1] += value
                fold[2] = value if fold[2] is None else min(fold[2], value)
                fold[3] = value if fold[3] is None else max(fold[3], value)
    out = {}
    for spec, (count, total, low, high) in zip(specs, folds):
        if spec.kind is AggKind.COUNT_STAR:
            out[str(spec)] = trends_seen
        elif spec.kind is AggKind.COUNT:
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
