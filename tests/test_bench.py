"""Benchmark harness sanity: metrics, determinism, table layout."""

from trendagg import run_benchmark
from trendagg.bench import format_results, run_pass
from trendagg.events import TRANSPORT_SCHEMA, generate_transport_stream
from trendagg.query import parse_query

QUERY = parse_query(
    "RETURN COUNT(*) PATTERN Trip T+ SEMANTICS any "
    "GROUP-BY passenger WITHIN 120 s",
    TRANSPORT_SCHEMA,
)


def _events(n_passengers=5, duration=600):
    return list(
        generate_transport_stream(
            passengers=n_passengers, stations=4, duration=duration, seed=11
        )
    )


def test_run_benchmark_fields():
    events = _events()
    result = run_benchmark(QUERY, events, reps=2)
    assert result.events == len(events) > 0
    assert result.reps == 2
    assert result.mean_elapsed_s > 0
    assert result.throughput_eps > 0
    assert result.mean_latency_ms > 0
    assert result.peak_entries > 0
    assert result.rows > 0
    assert result.backend == "python"


def test_rows_deterministic_across_reps():
    events = _events()
    first = list(run_pass(QUERY, events))
    second = list(run_pass(QUERY, events))
    assert first[1] == second[1]  # row counts
    assert first[0].peak_entries == second[0].peak_entries


def test_format_results_is_tabular():
    results = [run_benchmark(QUERY, _events(), reps=1)]
    text = format_results(results)
    lines = text.splitlines()
    assert len(lines) == 1 + len(results)
    assert "backend" in lines[0] and "events/s" in lines[0]
    for line in lines[1:]:
        assert len(line.split()) == 9
