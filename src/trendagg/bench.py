"""Benchmark harness: wall time, throughput, latency and state size.

Timing covers the full windowed pipeline (routing, kernels, window close)
but not parsing, generation or I/O - pass a materialized event list.
``max_rss_kb`` is the process high-water mark and is informational only:
it includes everything the process ever allocated, so the comparable
state-size number is ``peak_entries``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from statistics import fmean

from . import kernels
from .query import Query
from .windows import WindowManager


@dataclass(frozen=True)
class BenchResult:
    backend: str
    events: int
    reps: int
    mean_elapsed_s: float
    throughput_eps: float
    mean_latency_ms: float
    peak_entries: int
    rows: int
    max_rss_kb: int


def _max_rss_kb() -> int:
    try:
        import resource
    except ImportError:  # pragma: no cover
        return 0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def run_pass(query: Query, events, emit_empty=False):
    """One timed pass; returns (manager, rows_emitted, elapsed_seconds)."""
    manager = WindowManager(query, emit_empty=emit_empty)
    rows = 0
    started = time.perf_counter()
    for event in events:
        rows += len(manager.ingest(event))
    rows += len(manager.finish())
    elapsed = time.perf_counter() - started
    return manager, rows, elapsed


def run_benchmark(query: Query, events, reps: int = 3, emit_empty=False) -> BenchResult:
    events = list(events)
    timings = []
    rows = 0
    peak = 0
    for _ in range(max(1, reps)):
        manager, rows, elapsed = run_pass(query, events, emit_empty=emit_empty)
        timings.append(elapsed)
        peak = manager.peak_entries
    mean_elapsed = fmean(timings)
    n = len(events)
    return BenchResult(
        backend=kernels.backend_name(kernels.get_backend()),
        events=n,
        reps=len(timings),
        mean_elapsed_s=mean_elapsed,
        throughput_eps=n / mean_elapsed if mean_elapsed > 0 else float("inf"),
        mean_latency_ms=mean_elapsed * 1000.0 / n if n else 0.0,
        peak_entries=peak,
        rows=rows,
        max_rss_kb=_max_rss_kb(),
    )


def format_results(results) -> str:
    header = (
        f"{'backend':<10} {'events':>9} {'reps':>4} {'mean_s':>9} "
        f"{'events/s':>11} {'latency_ms':>11} {'peak_entries':>12} "
        f"{'rows':>7} {'max_rss_kb':>10}"
    )
    lines = [header]
    for r in results:
        lines.append(
            f"{r.backend:<10} {r.events:>9} {r.reps:>4} {r.mean_elapsed_s:>9.4f} "
            f"{r.throughput_eps:>11.0f} {r.mean_latency_ms:>11.6f} "
            f"{r.peak_entries:>12} {r.rows:>7} {r.max_rss_kb:>10}"
        )
    return "\n".join(lines)
