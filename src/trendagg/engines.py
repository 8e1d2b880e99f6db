"""Engine facade: one kernel over one partition key.

An Engine, built as ``Engine(query)`` or from a ``CompiledQuery`` that
``kernels.compile_query`` made, owns one kernel - the state of one
partition key over its open windows - and reads a window's aggregates
out. It is fed one timestamp at a time: all of the key's events at that
time in one step, as ``WindowManager`` feeds it, or a whole stream
through ``run``, which groups the events by time.
"""

from __future__ import annotations

from itertools import groupby
from operator import attrgetter

from .errors import InputError, OutOfOrder
from .kernels import CompiledQuery, MixedKernel, compile_query
from .query import Query


class Engine:
    """Incremental aggregation state for one partition key.

    The state covers every open window of the key (see ``kernels``).
    Built directly from a query, an engine is a single partition with one
    window that never closes.
    """

    def __init__(self, query: Query, compiled: CompiledQuery | None = None):
        self.compiled = compiled if compiled is not None else compile_query(query)
        self.kernel = MixedKernel(self.compiled)
        self.peak_entries = self.kernel.entry_count
        self._last_time = float("-inf")  # of the last ``step``
        self._stepped = 0  # events fed through ``step``

    def step(self, events):
        """Feed the events of one timestamp, a non-empty list, as one
        step; returns the cells created for them in the oldest open
        window, one ``(role, cell)`` per event and variable it plays, in
        order, and tracks ``peak_entries``. Each timestamp is stepped once,
        in time order: a time not later than the last step's raises
        ``OutOfOrder``, and events of different times raise ``InputError``."""
        time = events[0].time
        if time <= self._last_time:
            raise OutOfOrder(self._stepped + 1, self._last_time, time)
        for event in events:
            if event.time != time:
                raise InputError(
                    f"one step takes the events of one time, not {time} ms "
                    f"and {event.time} ms"
                )
        self._last_time = time
        self._stepped += len(events)
        probe = self.compiled.probe
        group = [(probe(event), event.attrs) for event in events]
        out = self.step_with_roles(time, group)
        entries = self.kernel.entry_count
        if entries > self.peak_entries:
            self.peak_entries = entries
        return [(r, cells[: self.compiled.k]) for r, cells, _ in out]

    def step_with_roles(self, time: int, group, width: int = 1):
        """Feed the events at ``time``, as ``(roles, attrs)`` pairs, that
        fall into ``width`` windows, the open ones first; returns what the
        kernel step returns."""
        return self.kernel.step(time, group, width)

    def run(self, events):
        """Feed a time-ordered stream, one timestamp per step."""
        for _, tied in groupby(events, attrgetter("time")):
            self.step(list(tied))
        return self

    def results(self, cell=None) -> dict:
        """Aggregate values of the oldest open window, keyed by their
        RETURN-clause spelling; ``cell`` is that window's final cell, when
        the caller has read it already."""
        if cell is None:
            cell = self.kernel.final_cell()
        return self.compiled.readout(cell)
