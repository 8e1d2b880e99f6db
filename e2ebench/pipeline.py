"""One pass of a query over a CSV stream, as a user of trendagg runs it.

CSV read, query parse, closed-loop replay through ``WindowManager.ingest``
(the next event is fed only after ``ingest`` returns), ``finish``, then the
result rows written with ``cli.write_rows``. The calls go through the
module attributes so that a traced pass sees the wrapped versions. The
time that an active ``reference.Probe`` spends inside the pass is left out
of the pass's timings.
"""

from __future__ import annotations

import math
import time
from array import array
from dataclasses import dataclass

import trendagg.cli as cli
import trendagg.events as events
import trendagg.query as query_mod
from trendagg.windows import WindowManager

from e2ebench.reference import NoProbe


@dataclass
class PassResult:
    elapsed_ns: int  # without the probe's time
    events: int
    rows: int
    ingest_ns: array  # one sample per ingest call
    emit_ns: array  # per result row: duration of the call that returned it
    manager: WindowManager


def run_pass(stream_path, schema_path, query_text, out_path, probe=NoProbe) -> PassResult:
    clock = time.perf_counter_ns
    started = clock()
    probe_started = probe.spent_ns
    schema = events.Schema.from_json(schema_path)
    stream = events.read_csv_stream(stream_path, schema=schema)
    query = query_mod.parse_query(query_text, schema)
    manager = WindowManager(query)
    ingest = manager.ingest
    ingest_ns = array("q")
    emit_ns = array("q")
    rows = []
    for event in stream:
        # The probe's time is read inside the clock readings, so that a
        # slice that lands between them makes a sample long, never negative.
        t0 = clock()
        p0 = probe.spent_ns
        out = ingest(event)
        in_probe = probe.spent_ns - p0
        spent = clock() - t0 - in_probe
        ingest_ns.append(spent)
        if out:
            rows.extend(out)
            emit_ns.extend([spent] * len(out))
    t0 = clock()
    p0 = probe.spent_ns
    out = manager.finish()
    in_probe = probe.spent_ns - p0
    spent = clock() - t0 - in_probe
    rows.extend(out)
    emit_ns.extend([spent] * len(out))
    with open(out_path, "w", newline="") as fh:
        written = cli.write_rows(rows, query, fh)
    in_probe = probe.spent_ns - probe_started
    elapsed = clock() - started - in_probe
    return PassResult(elapsed, len(ingest_ns), written, ingest_ns, emit_ns, manager)


def percentile(samples, p: float):
    """Nearest-rank percentile; ``p`` in (0, 100]."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]
