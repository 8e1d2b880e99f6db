"""Sliding windows and partitioning on top of the engines.

The query is compiled once; each partition key owns one engine whose state
covers all of the key's open windows. Window ids are derived
arithmetically from the event time: window ``w`` covers
``[w * slide, w * slide + within)`` milliseconds, so an event at time
``t`` falls into a contiguous run of ids. Windows close as soon as an
event at or past their end boundary arrives (the stream is time-ordered),
or when the stream ends. Closing a window reads each key's aggregates for
it and drops that window from the key's state; a key with no open window
left loses its engine.

Since windows close before a later event is routed, the windows a key
holds are always the oldest of the windows the key's next event falls
into. The event is applied once per key; the engine opens the missing
windows at the back. The open window ids of all keys together are
contiguous, so closing visits only the windows that end.

Routing rules:

* An event that can play at least one pattern variable must carry every
  partition attribute (``MissingGroupAttribute`` otherwise) and is fed to
  all windows it falls into, opening windows and engines on demand.
* Under contiguous semantics an event that matches nothing still severs
  any open chain in its own partition. Such events are routed to the
  windows already open for the key only - they cannot start anything, and
  a window opened later only sees events after the gap anyway. If the
  partition key cannot be extracted the event is dropped.
* Everything else that matches nothing is ignored.

Rows for windows whose trend count is zero are suppressed unless
``emit_empty`` is set; windows that never saw a matching event produce no
row either way.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .engines import Engine, compile_query
from .errors import MissingGroupAttribute
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


@dataclass(frozen=True)
class ResultRow:
    wid: int
    window_start_ms: int
    window_end_ms: int
    key: tuple
    values: dict = field(compare=False)


class WindowManager:
    """Routes a time-ordered stream into one engine per partition key."""

    def __init__(self, query: Query, emit_empty=False):
        self.query = query
        self.emit_empty = emit_empty
        self.spec = WindowSpec(query.within_ms, query.slide_ms)
        self.compiled = compile_query(query)
        self._cont = query.semantics is Semantics.CONT
        self._partition_attrs = query.partition_attrs
        self._matchable = self.compiled.probe
        self._engines = {}  # key -> Engine over the key's open windows
        self._entries = {}  # key -> the engine's entries() after its last change
        self._keys_by_wid = {}  # open window id -> keys holding it
        self._first_wid = 0  # oldest open window id
        self._min_end = float("inf")
        self.events_ingested = 0
        self.rows_emitted = 0
        self.current_entries = 0
        self.peak_entries = 0

    def _key_of(self, event, required: bool):
        values = []
        for attr in self._partition_attrs:
            if attr not in event.attrs:
                if required:
                    raise MissingGroupAttribute(
                        f"event at {event.time}ms lacks partition "
                        f"attribute {attr!r}"
                    )
                return None
            values.append(event.attrs[attr])
        return tuple(values)

    def ingest(self, event):
        """Feed one event; returns rows for windows that just closed."""
        rows = self.close_expired(event.time)
        self.events_ingested += 1
        roles = self._matchable(event)
        if roles:
            key = self._key_of(event, required=True)
            wids = windows_of(event.time, self.spec)
            width = len(wids)
            engine = self._engines.get(key)
            if engine is None:
                engine = self._engines[key] = Engine(self.query, self.compiled)
                held = 0
            else:
                held = engine.width
            # The key's open windows are the oldest of the event's windows.
            for wid in wids[held:]:
                self._open(wid, key)
        elif self._cont:
            key = self._key_of(event, required=False)
            engine = self._engines.get(key)
            if engine is None:
                return rows
            width = 0
        else:
            return rows
        engine.step_with_roles(event, roles, width)
        entries = engine.entries()
        self.current_entries += entries - self._entries.get(key, 0)
        self._entries[key] = entries
        if self.current_entries > self.peak_entries:
            self.peak_entries = self.current_entries
        return rows

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
        rows = []
        while now_ms >= self._min_end:
            self._close_oldest(rows)
        return rows

    def finish(self):
        """Emit everything still open, in (window id, key) order."""
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
        for key in sorted(keys):
            engine = self._engines[key]
            if engine.final_count != 0 or self.emit_empty:
                self.rows_emitted += 1
                rows.append(
                    ResultRow(
                        wid=wid,
                        window_start_ms=self.spec.start_of(wid),
                        window_end_ms=self.spec.end_of(wid),
                        key=key,
                        values=engine.results(),
                    )
                )
            engine.drop_window()
            entries = engine.entries()
            self.current_entries += entries - self._entries[key]
            if engine.width:
                self._entries[key] = entries
            else:
                del self._engines[key]
                del self._entries[key]
