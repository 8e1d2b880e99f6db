"""Sliding windows and partitioning on top of the engines.

The query is compiled once; each partition key owns one engine whose state
covers all of the key's open windows. Window ids are derived
arithmetically from the event time: window ``w`` covers
``[w * slide, w * slide + within)`` milliseconds, so an event at time
``t`` falls into a contiguous run of ids. Windows close as soon as an
event at or past their end boundary arrives (the stream is time-ordered),
or when the stream ends. Closing a window only reads each key's aggregates
for it: a key's state is trimmed of its closed windows at the key's next
step, and a key with no open window left loses its engine. Before that,
as soon as an event with a later time arrives, every key that stepped at
the previous time ends that timestamp, which frees its tie state.

Since windows close before a later event is routed, the windows a key
holds are always the oldest of the windows the key's next event falls
into. The event is applied once per key; the engine opens the missing
windows at the back. The open window ids of all keys together are
contiguous, so closing visits only the windows that end.

Routing rules, applied by ``route`` for both this manager and the
enumerating oracle (``cli.oracle_rows``):

* An event that can play at least one pattern variable must carry every
  partition attribute (``MissingGroupAttribute`` otherwise) and is fed to
  all windows it falls into, opening windows and engines on demand.
* Under contiguous semantics an event that matches nothing still severs
  any open chain in its own partition. Such events are routed to the
  windows already open for the key only - they cannot start anything, and
  a window opened later only sees events after the gap anyway. If the
  partition key cannot be extracted the event is dropped.
* Everything else that matches nothing is ignored.

The manager relies on time order and raises ``OutOfOrder`` when an
event's time is below its predecessor's.

Rows for windows whose trend count is zero are suppressed unless
``emit_empty`` is set; windows that never saw a matching event produce no
row either way.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .engines import Engine, compile_query
from .errors import MissingGroupAttribute, OutOfOrder
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


def route(event, probe, partition_attrs, cont):
    """Where ``event`` goes under the routing rules above.

    ``probe`` is the query's ``RoleProbe``. Returns ``None`` when the event
    is dropped, otherwise ``(roles, key)``: the variables it can play and
    its partition key. Empty ``roles`` mark a contiguous-semantics gap
    event, which reaches only the windows already open for ``key``.
    """
    roles = probe(event)
    if roles or cont:
        try:
            return roles, tuple(map(event.attrs.__getitem__, partition_attrs))
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
        self.compiled = compile_query(query)
        self._cont = query.semantics is Semantics.CONT
        self._partition_attrs = query.partition_attrs
        self._probe = self.compiled.probe
        self._engines = {}  # key -> Engine over the key's open windows
        self._stepped = []  # kernels that stepped at the last timestamp
        self._keys_by_wid = {}  # open window id -> keys holding it
        self._first_wid = 0  # oldest open window id
        self._min_end = float("inf")
        self._last_time = 0
        self.events_ingested = 0
        self.rows_emitted = 0
        self.current_entries = 0
        self.peak_entries = 0

    def ingest(self, event):
        """Feed one event; returns rows for windows that just closed.

        Raises ``OutOfOrder`` when the event is older than the one before,
        naming its position among the events fed so far.
        """
        time = event.time
        if time != self._last_time:
            if time < self._last_time:
                raise OutOfOrder(self.events_ingested + 1, self._last_time, time)
            self._last_time = time
            if self._stepped:  # before any window closes
                self._end_timestamp()
        rows = self.close_expired(time) if time >= self._min_end else []
        self.events_ingested += 1
        routed = route(event, self._probe, self._partition_attrs, self._cont)
        if routed is None:
            return rows
        roles, key = routed
        engine = self._engines.get(key)
        if roles:
            wids = windows_of(time, self.spec)
            width = len(wids)
            if engine is None:
                engine = self._engines[key] = Engine(self.query, self.compiled)
                held = 0
            else:
                held = engine.kernel.width
            # The key's open windows are the oldest of the event's windows.
            if width > held:
                for wid in wids[held:]:
                    self._open(wid, key)
        elif engine is None:
            return rows
        else:
            width = 0
        kernel = engine.kernel
        if kernel.time is None:  # its first step at this time
            self._stepped.append(kernel)
        before = kernel.entry_count
        engine.step_with_roles(event, roles, width)
        self.current_entries += kernel.entry_count - before
        if self.current_entries > self.peak_entries:
            self.peak_entries = self.current_entries
        return rows

    def _end_timestamp(self):
        """End the last timestamp in every kernel that stepped at it: the
        stream has moved past it, or ended."""
        freed = 0
        for kernel in self._stepped:
            freed += kernel.end_timestamp()
        self.current_entries -= freed
        self._stepped.clear()

    def _open(self, wid, key):
        keys = self._keys_by_wid.get(wid)
        if keys is None:
            if not self._keys_by_wid:
                self._first_wid = wid
                self._min_end = self.spec.end_of(wid)
            keys = self._keys_by_wid[wid] = []
        keys.append(key)

    def run(self, events):
        """Feed a whole stream and yield result rows as windows close."""
        for event in events:
            yield from self.ingest(event)
        yield from self.finish()

    def close_expired(self, now_ms: int):
        """Emit and drop every window that ended at or before ``now_ms``."""
        if now_ms > self._last_time and self._stepped:  # the stream is past it
            self._end_timestamp()
        rows = []
        while now_ms >= self._min_end:
            self._close_oldest(rows)
        return rows

    def finish(self):
        """Emit everything still open, in (window id, key) order."""
        self._end_timestamp()
        rows = []
        while self._keys_by_wid:
            self._close_oldest(rows)
        return rows

    def _close_oldest(self, rows):
        # Open window ids are contiguous: an event opens every window it
        # falls into that its key does not hold yet, and all windows that
        # end after it stay open.
        wid = self._first_wid
        keys = self._keys_by_wid.pop(wid)
        self._first_wid = wid + 1
        self._min_end = (
            self.spec.end_of(wid + 1) if self._keys_by_wid else float("inf")
        )
        start = self.spec.start_of(wid)
        end = self.spec.end_of(wid)
        emitted = len(rows)
        freed = 0
        for key in sorted(keys):
            engine = self._engines[key]
            kernel = engine.kernel
            cell = kernel.final_cell()
            if cell[0] != 0 or self.emit_empty:
                rows.append(_trusted_row(wid, start, end, key, engine.results(cell)))
            if kernel.width == 1:  # the key's last window: drop it all
                del self._engines[key]
                freed += kernel.entry_count
            else:
                freed += kernel.drop_front()
        self.current_entries -= freed
        self.rows_emitted += len(rows) - emitted
