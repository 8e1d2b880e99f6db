"""Local filtering one predicate at a time: the reference that
``query.RoleProbe`` is tested against, and the candidate rule of the
from-scratch enumeration in ``test_oracle``."""

from trendagg.events import Event
from trendagg.query import Query


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
