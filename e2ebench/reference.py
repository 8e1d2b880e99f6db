"""A fixed slice of pure-Python work that measures how fast the machine runs.

On a shared host the speed of a vCPU changes from one ten-millisecond
stretch to the next and drifts over minutes, as other tenants' work comes
and goes on the same cores. A pass of the pipeline averages over whatever
mix of fast and slow stretches it happens to get, so its raw time moves by
tens of percent between runs of the same code.

``Probe`` measures that mix while a pass runs: a timer signal every
``EVERY_NS`` of wall time interrupts the pass, wherever it is, to time one
fixed slice of interpreter work (dict and attribute access, calls,
comparisons, small tuples), and the pass's timings leave out the probe's
time. The slices' slowdown (nominal over their mean speed, a speed being
``NOMINAL_NS`` over a slice's time) is how much slower than nominal the
machine ran that pass; the pass's time and its latency samples are
divided by it. Set-up is timed under a probe of its own. The work never
touches trendagg, so a change to the program cannot change it, and it
keeps no memory between slices.
"""

import gc
import signal
import time
from array import array

EVERY_NS = 20_000_000  # a slice every 20 ms: about 2% of a pass

# A slice's mean time on a 2-vCPU x86_64 VM (Intel Xeon, shared host,
# Python 3.11): scaled timings read as on a machine this fast.
NOMINAL_NS = 400_000

_RECORDS = tuple((i % 37, (i * 7919) % 101 / 4.0) for i in range(64))
_KEPT = 8


class _Record:
    __slots__ = ("key", "wait")

    def __init__(self, key, wait):
        self.key = key
        self.wait = wait


def _before(stored, record) -> bool:
    return stored.wait < record.wait


def _combine(a, b):
    """(count modulo a prime, least wait, greatest wait)."""
    return (
        (a[0] + b[0]) % 1_000_003,
        a[1] if a[1] <= b[1] else b[1],
        a[2] if a[2] >= b[2] else b[2],
    )


def _slice() -> int:
    groups = {}
    total = (0, 0.0, 0.0)
    for _ in range(3):
        for key, wait in _RECORDS:
            record = _Record(key, wait)
            kept = groups.get(key)
            if kept is None:
                kept = groups[key] = []
            cell = (1, wait, wait)
            for stored, stored_cell in kept:
                if _before(stored, record):
                    cell = _combine(cell, stored_cell)
            kept.append((record, cell))
            if len(kept) > _KEPT:
                del kept[0]
            total = _combine(total, cell)
    return total[0]


class Probe:
    """Runs a slice of fixed work every ``EVERY_NS`` of wall time while
    active (``with probe:``), from a ``SIGALRM`` handler, so that the slices
    sample every phase of a pass alike. ``samples`` holds each slice's ns;
    ``spent_ns`` is the handler's total time, which the pass leaves out of
    its own timings."""

    def __init__(self, every_ns=EVERY_NS):
        self.every_ns = every_ns
        self.samples = array("q")
        self.spent_ns = 0
        self._saved = None

    def __enter__(self):
        self._saved = signal.signal(signal.SIGALRM, self._on_alarm)
        every = self.every_ns / 1e9
        signal.setitimer(signal.ITIMER_REAL, every, every)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._saved)

    def _timed_slice(self) -> int:
        """ns of one slice, with the cyclic collector held off so that a
        collection of the pipeline's objects is not charged to it."""
        entered = time.perf_counter_ns()
        enabled = gc.isenabled()
        gc.disable()
        try:
            started = time.perf_counter_ns()
            _slice()
            took = time.perf_counter_ns() - started
        finally:
            if enabled:
                gc.enable()
            self.spent_ns += time.perf_counter_ns() - entered
        return took

    def _on_alarm(self, signum, frame):
        self.samples.append(self._timed_slice())

    def slowdown(self) -> float:
        """Nominal over mean speed: 2.0 means the machine ran at half the
        nominal speed. Speeds, not times, are averaged, because a pass's
        time is its work over the mean speed it got."""
        if not self.samples:
            return 1.0
        mean_speed = sum(NOMINAL_NS / ns for ns in self.samples) / len(self.samples)
        return 1.0 / mean_speed


class NoProbe:
    """Stands in for a ``Probe`` in passes that run without one."""

    spent_ns = 0
