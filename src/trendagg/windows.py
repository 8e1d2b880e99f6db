"""Sliding windows and partitioning on top of the engines.

The query is compiled once (``kernels.compile_query``); each partition key
owns one engine whose state covers all of the key's open windows. Window
ids are derived arithmetically from the event time: window ``w`` covers
``[w * slide, w * slide + within)`` milliseconds, so an event at time ``t``
falls into a contiguous run of ids, ``windows_of(t, spec)``.
``WindowManager`` computes that run's first id and length once per
timestamp, from ``t // slide`` and ``(t - within) // slide + 1``, clamped
at 0. Windows close as soon as an event at or past their end boundary
arrives (the stream is time-ordered), or when the stream ends. Closing a
window only reads each key's aggregates for it: a key's state is trimmed
of its closed windows at the key's next step, and a key with no open
window left loses its engine.

Each event is routed as it arrives, and held with the other events of its
key at its timestamp. When the stream moves past the timestamp (an event
with a later time, a ``close_expired`` past it, or ``finish``), each key's
events at it are applied in one step, keys in the order they first
arrived at that time, before any window closes. So an error that a step
raises (``MissingAttribute``, ``AggregateOverflow``) surfaces at that
later call, and the state and entry counts read between two calls do not
yet hold the current timestamp's events. Once a step or a closing
window's read-out has raised, the manager has stopped: every later
``ingest``, ``close_expired`` and ``finish`` raises that error again.
``OutOfOrder`` and ``MissingGroupAttribute`` raise before the manager
changes anything, so they leave it usable.

Since windows close before a later timestamp is stepped, the windows a
key holds are always the oldest of the windows its next timestamp falls
into. The events are applied once per key; the engine opens the missing
windows at the back. A key's kernel numbers its windows by window id,
its ``base`` being the oldest. A new key's oldest window is the oldest
one still open, since every window that ended by its first timestamp has
closed; so every key holds the closing window, and a close reads every
kernel and moves every ``base`` on by one.

A close visits the keys in order, so that rows come out in (window id,
key) order. The sorted keys are kept from one close to the next: a new
engine makes them stale, and they are sorted again at the next close
only then, while a close that drops engines keeps the rest in order. So
a close costs a sort only after a new key has arrived.

Routing rules, applied by ``route`` for both this manager and the
enumerating oracle (``cli.oracle_rows``):

* An event that can play at least one pattern variable must carry every
  partition attribute (``MissingGroupAttribute`` otherwise) and is fed to
  all windows it falls into, opening windows and engines on demand.
* Under contiguous semantics an event that matches nothing still severs
  any open chain in its own partition. Such events are routed to the
  windows already open for the key only - they cannot start anything, and
  a window opened later only sees events after the gap anyway. If the
  partition key cannot be extracted the event is dropped. A key whose
  engine opens at the gap's own timestamp counts the gap among that
  timestamp's events.
* Everything else that matches nothing is ignored.

The manager relies on time order and raises ``OutOfOrder`` when an
event's time is below its predecessor's.

Rows for windows whose trend count is zero are suppressed unless
``emit_empty`` is set; windows that never saw a matching event produce no
row either way.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter

from .engines import Engine
from .errors import MissingGroupAttribute, OutOfOrder
from .kernels import compile_query
from .query import Query, Semantics


@dataclass(frozen=True)
class WindowSpec:
    within_ms: int
    slide_ms: int

    def start_of(self, wid: int) -> int:
        return wid * self.slide_ms

    def end_of(self, wid: int) -> int:
        return wid * self.slide_ms + self.within_ms


def windows_of(time_ms: int, spec: WindowSpec) -> range:
    """Ids of every window containing ``time_ms``, in increasing order."""
    lo = max(0, (time_ms - spec.within_ms) // spec.slide_ms + 1)
    hi = time_ms // spec.slide_ms
    return range(lo, hi + 1)


def key_getter(partition_attrs):
    """The partition key of an event's attributes, as a function built
    once per query: a closure over the one name for one attribute,
    ``operator.itemgetter`` for several, and for none a function that
    returns ``()``. A missing attribute raises ``KeyError`` naming the
    first one missing, in ``partition_attrs`` order."""
    if len(partition_attrs) > 1:
        return itemgetter(*partition_attrs)
    if partition_attrs:
        (name,) = partition_attrs
        return lambda attrs: (attrs[name],)
    return lambda attrs: ()


def route(event, probe, key_of, cont):
    """Where ``event`` goes under the routing rules above.

    ``probe`` is the query's ``RoleProbe`` and ``key_of`` its
    ``key_getter``. Returns ``None`` when the event is dropped, otherwise
    ``(roles, key)``: the variables it can play and its partition key.
    Empty ``roles`` mark a contiguous-semantics gap event, which reaches
    only the windows already open for ``key``.
    """
    roles = probe(event)
    if roles or cont:
        try:
            return roles, key_of(event.attrs)
        except KeyError as exc:
            if roles:
                raise MissingGroupAttribute(
                    f"event at {event.time}ms lacks partition "
                    f"attribute {exc.args[0]!r}"
                ) from None
    return None


@dataclass(frozen=True, slots=True)
class ResultRow:
    wid: int
    window_start_ms: int
    window_end_ms: int
    key: tuple
    values: dict = field(compare=False)


_new_object = object.__new__
_set_wid = ResultRow.wid.__set__
_set_start = ResultRow.window_start_ms.__set__
_set_end = ResultRow.window_end_ms.__set__
_set_key = ResultRow.key.__set__
_set_values = ResultRow.values.__set__


def _trusted_row(wid, start, end, key, values) -> ResultRow:
    """A ``ResultRow`` set through the slot descriptors, skipping the
    frozen ``__init__``'s ``object.__setattr__`` per field."""
    row = _new_object(ResultRow)
    _set_wid(row, wid)
    _set_start(row, start)
    _set_end(row, end)
    _set_key(row, key)
    _set_values(row, values)
    return row


class WindowManager:
    """Routes a time-ordered stream into one engine per partition key."""

    def __init__(self, query: Query, emit_empty=False):
        self.query = query
        self.emit_empty = emit_empty
        self.spec = WindowSpec(query.within_ms, query.slide_ms)
        self._within = query.within_ms
        self._slide = query.slide_ms
        self.compiled = compile_query(query)
        self._cont = query.semantics is Semantics.CONT
        self._key_of = key_getter(query.partition_attrs)
        self._probe = self.compiled.probe
        self._engines = {}  # key -> Engine over the key's open windows
        self._keys = []  # the keys of ``_engines`` in order, or None if stale
        # key -> (roles, attrs) of its events at the last time, not stepped yet
        self._pending = {}
        self._first_wid = 0  # oldest open window id
        self._min_end = float("inf")
        self._last_time = 0  # infinite once failed: see ``_fail``
        self._failed = None  # the error a step or a close raised
        self.events_ingested = 0
        self.rows_emitted = 0
        self.current_entries = 0
        self.peak_entries = 0

    def ingest(self, event):
        """Feed one event; returns rows for windows that just closed.

        Raises ``OutOfOrder`` when the event is older than the one before,
        naming its position among the events fed so far. An event with a
        later time first steps the events held at the last one.
        """
        time = event.time
        if time != self._last_time:
            if time < self._last_time:
                if self._failed is not None:
                    raise self._failed
                raise OutOfOrder(self.events_ingested + 1, self._last_time, time)
            if self._pending:
                self._step_pending()
            self._last_time = time
        rows = self.close_expired(time) if time >= self._min_end else []
        self.events_ingested += 1
        routed = route(event, self._probe, self._key_of, self._cont)
        if routed is not None:
            roles, key = routed
            self._pending.setdefault(key, []).append((roles, event.attrs))
        return rows

    def _step_pending(self):
        """Step each key's events held at the last time, one step per key,
        keys in the order they first arrived."""
        pending, self._pending = self._pending, {}
        time = self._last_time
        # The timestamp's windows are ``lo`` to ``lo + width - 1``, as
        # ``windows_of`` gives them.
        lo = (time - self._within) // self._slide + 1
        if lo < 0:
            lo = 0
        width = time // self._slide - lo + 1
        engines = self._engines
        for key, group in pending.items():
            engine = engines.get(key)
            span = width
            if self._cont and not any(roles for roles, _ in group):  # gaps only
                if engine is None:  # the key holds no window for them
                    continue
                span = 0
            if engine is None:
                if not engines:
                    self._first_wid = lo
                    self._min_end = self.spec.end_of(lo)
                engine = engines[key] = Engine(self.query, self.compiled)
                self._keys = None
                engine.kernel.base = lo  # its windows are numbered by id
            kernel = engine.kernel
            before = kernel.entry_count
            try:
                engine.step_with_roles(time, group, span)
            except Exception as exc:
                self._fail(exc)
                raise
            finally:  # the kernel's count is exact also after a raise
                self.current_entries += kernel.entry_count - before
                if self.current_entries > self.peak_entries:
                    self.peak_entries = self.current_entries

    def run(self, events):
        """Feed a whole stream and yield result rows as windows close."""
        for event in events:
            yield from self.ingest(event)
        yield from self.finish()

    def close_expired(self, now_ms: int):
        """Emit and drop every window that ended at or before ``now_ms``.
        The stream is then at ``now_ms``: a later event before it raises
        ``OutOfOrder``."""
        if self._failed is not None:
            raise self._failed
        if now_ms > self._last_time:  # the stream is past the held events
            if self._pending:
                self._step_pending()
            self._last_time = now_ms
        rows = []
        while now_ms >= self._min_end:
            self._close_oldest(rows)
        return rows

    def finish(self):
        """Emit everything still open, in (window id, key) order."""
        if self._failed is not None:
            raise self._failed
        self._step_pending()
        rows = []
        while self._engines:
            self._close_oldest(rows)
        return rows

    def _fail(self, exc):
        """Stop the manager: its state no longer follows the stream, so
        every later ``ingest``, ``close_expired`` and ``finish`` raises
        ``exc``. With the last time at infinity, every event takes the
        out-of-order branch of ``ingest``, where that check sits."""
        self._failed = exc
        self._last_time = float("inf")

    def _close_oldest(self, rows):
        # Every key holds the closing window, as its ``base``.
        wid = self._first_wid
        start = self.spec.start_of(wid)
        end = self.spec.end_of(wid)
        engines = self._engines
        keys = self._keys
        if keys is None:
            keys = sorted(engines)
        emitted = len(rows)
        freed = 0
        for key in keys:
            engine = engines[key]
            kernel = engine.kernel
            cell = kernel.final_cell()
            if cell[0] != 0 or self.emit_empty:
                try:
                    values = engine.results(cell)
                except Exception as exc:
                    self._fail(exc)
                    raise
                rows.append(_trusted_row(wid, start, end, key, values))
            if kernel.width == 1:  # the key's last window: drop it all
                del engines[key]
                freed += kernel.entry_count
            else:
                freed += kernel.drop_front()
        if len(keys) > len(engines):  # carry the survivors forward, in order
            keys = [key for key in keys if key in engines] if engines else []
        self._keys = keys
        self._first_wid = wid + 1
        self._min_end = self.spec.end_of(wid + 1) if engines else float("inf")
        self.current_entries -= freed
        self.rows_emitted += len(rows) - emitted
