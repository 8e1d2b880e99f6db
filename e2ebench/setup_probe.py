"""Set-up time of a fresh interpreter, up to the first event.

``python3 setup_probe.py SRC SCHEMA_JSON QUERY_FILE`` times ``import trendagg``,
the schema load, ``parse_query`` and ``WindowManager(...)`` and prints the
seconds taken and the slowdown that a ``reference.Probe`` measured over
them, slicing every ``EVERY_NS``; the probe's time is left out of the
seconds. Of the benchmark only ``reference`` is imported, which loads no
module that trendagg uses, so the timed imports are the program's own.
"""

import sys
import time

from reference import Probe

EVERY_NS = 5_000_000  # set-up takes about 0.1 s: some 20 slices

src, schema_path, query_path = sys.argv[1:4]
sys.path.insert(0, src)
probe = Probe(EVERY_NS)
with probe:
    started = time.perf_counter_ns()
    import trendagg  # noqa: E402

    schema = trendagg.Schema.from_json(schema_path)
    query = trendagg.load_query(query_path, schema)
    trendagg.WindowManager(query)
    in_probe = probe.spent_ns
    elapsed = time.perf_counter_ns() - started - in_probe
if not trendagg.__file__.startswith(src):
    sys.exit(f"imported trendagg from {trendagg.__file__}, not from {src}")
print(elapsed / 1e9, probe.slowdown())
