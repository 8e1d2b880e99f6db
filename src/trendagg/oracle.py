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

``enumerate_trends`` is the one search for all three semantics; it reads
the semantics from the query (its SEMANTICS clause). In operational terms:

* skip-till-any-match: between trend events anything may be skipped, so
  every event is both taken and not taken (depth-first over both choices).
* skip-till-next-match: an event that can extend an open match must extend
  it - only irrelevant events are skipped. Each start-variable occurrence
  opens a chain; the chain takes the first later event that can extend its
  tip, and forks once for each variable that event can play there (more
  than one only when several variables read its stream type). A finished
  trend is recorded each time the tip passes the end variable. The search
  is the skip-till-any-match one, with a tip's remaining candidates cut to
  the other occurrences of the event that extended it.
* contiguous: additionally, nothing at all may lie strictly between a
  trend's first and last event. The skip-till-any-match search is pruned:
  ``last`` is extended by ``occ`` only if no event time lies strictly
  between theirs and, unless ``last`` is the trend's first event, no other
  event shares its time. Adjacent trend events have strictly increasing
  times, so a trend holds one event per timestamp and cannot hold a tie
  inside its span. The prune keeps exactly the gap-free trends, and every
  prefix of a gap-free trend is gap-free, so the search reaches them all.

Under contiguous semantics the input must be the partition's raw event
sequence - events that fail local predicates still break contiguity.
"""

from __future__ import annotations

from collections import Counter, namedtuple

from .errors import ExplosionGuard, MissingAttribute
from .query import AggKind, Query, RoleProbe, Semantics

DEFAULT_CAP = 1_000_000

Occurrence = namedtuple("Occurrence", "index variable event")


def _matchable(events, query):
    probe = RoleProbe(query)
    out = []
    for i, ev in enumerate(events):
        for variable in probe(ev):
            out.append(Occurrence(i, variable, ev))
    return out


def _adjacency(query):
    """May occurrence ``nxt`` directly follow ``prev`` inside a trend? The
    predecessor relation must allow the pair, time must strictly increase,
    and each of the pair's checks in ``Query.adjacency`` must hold."""
    preds, table = query.template.pred_types, query.adjacency

    def adjacent(prev: Occurrence, nxt: Occurrence) -> bool:
        if prev.variable not in preds[nxt.variable] or prev.event.time >= nxt.event.time:
            return False
        for prev_attr, op, next_attr in table.get((prev.variable, nxt.variable), ()):
            try:
                a, b = prev.event.attrs[prev_attr], nxt.event.attrs[next_attr]
            except KeyError as exc:
                raise MissingAttribute(
                    f"adjacency predicate needs attribute {exc.args[0]}, "
                    "absent on event"
                ) from None
            if not op(a, b):
                return False
        return True

    return adjacent


def enumerate_trends(events, query: Query, cap: int = DEFAULT_CAP):
    """An iterator over the query's trends in ``events``, in canonical
    order, by one depth-first search over the matchable occurrences: every
    start occurrence opens a trend, and a trend's tip is extended by the
    candidates that may follow it. Raises ``ExplosionGuard`` once more
    than ``cap`` trends are found.

    Under skip-till-any-match every later candidate is tried. Under
    contiguous semantics the same search is pruned to the gap-free trends,
    so ``events`` must be the partition's full sequence: an event that
    cannot match anything still breaks contiguity when it falls strictly
    inside a trend's time span. Under skip-till-next-match, once the tip
    is extended by the candidate at position ``j``, its other candidates
    shrink to the other occurrences of that same event: the chain takes
    the first event that can extend it, once for each variable the event
    can play there."""
    template = query.template
    contiguous = query.semantics is Semantics.CONT
    consume = query.semantics is Semantics.NEXT
    candidates = _matchable(events, query)
    run_end = {occ.index: j + 1 for j, occ in enumerate(candidates)}
    times = sorted({ev.time for ev in events})
    following = dict(zip(times, times[1:]))
    ties = Counter(ev.time for ev in events)
    adjacent = _adjacency(query)

    def may_follow(trend, occ):
        if not trend:
            return occ.variable == template.start_type
        last = trend[-1]
        if contiguous and (
            occ.event.time != following.get(last.event.time)
            or len(trend) > 1 and ties[last.event.time] > 1
        ):
            return False
        return adjacent(last, occ)

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
                if consume and trend:
                    untried[-1] = iter(range(j + 1, run_end[occ.index]))
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


def aggregate_trends(trends, specs) -> dict:
    """Fold trends into the requested aggregate values, in one pass and in
    the order given, which ``enumerate_trends`` makes canonical."""
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
                # The older of two equal values stays, and so does a nan.
                low, high = fold[2], fold[3]
                fold[2] = low if low is not None and low <= value or low != low else value
                fold[3] = high if high is not None and high >= value or high != high else value
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
