"""Local filtering and adjacency, one predicate at a time: the reference
that ``query.RoleProbe`` is tested against, and the candidate and
adjacency rules of the from-scratch enumeration in ``test_oracle``."""

from typing import Optional

from trendagg.errors import MissingAttribute
from trendagg.events import Event
from trendagg.pattern import PatternTemplate
from trendagg.query import Adjacent, Query


def variables_for(query: Query, etype) -> tuple:
    """The pattern variables that read events of type ``etype``."""
    return tuple(sorted(v for v, src in query.aliases.items() if src == etype))


def passes_local(query: Query, event: Event, variable: str) -> bool:
    """Do the local predicates allow ``event`` to match ``variable``?"""
    for p in query.local_predicates:
        if p.variable != variable:
            continue
        value = event.attrs.get(p.attr)
        if value is None or not p.op.apply(value, p.constant):
            return False
    return True


def matchable_variables(query: Query, event: Event) -> tuple:
    """Variables this event can play, after local filtering."""
    return tuple(
        v for v in variables_for(query, event.etype) if passes_local(query, event, v)
    )


def check_adjacent(
    template: PatternTemplate,
    predicates,
    prev: Event,
    nxt: Event,
    prev_variable: Optional[str] = None,
    next_variable: Optional[str] = None,
) -> bool:
    """May ``nxt`` directly follow ``prev`` inside a trend?

    True iff the predecessor relation allows the pair, time strictly
    increases, and every adjacency predicate bound to this variable pair
    holds. Variables default to the events' types for unaliased patterns.
    """
    pv = prev_variable if prev_variable is not None else prev.etype
    nv = next_variable if next_variable is not None else nxt.etype
    if pv not in template.pred_types.get(nv, ()):
        return False
    if not prev.time < nxt.time:
        return False
    for p in predicates:
        if (
            isinstance(p, Adjacent)
            and p.prev_variable == pv
            and p.next_variable == nv
        ):
            try:
                a = prev.attrs[p.prev_attr]
                b = nxt.attrs[p.next_attr]
            except KeyError as exc:
                raise MissingAttribute(
                    f"adjacency predicate needs attribute {exc.args[0]}, "
                    "absent on event"
                ) from None
            if not p.op.apply(a, b):
                return False
    return True
