"""Smoke tests of the benchmark itself, on tiny streams."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import trendagg.cli as cli  # noqa: E402
from trendagg import TRANSPORT_SCHEMA, write_csv_stream  # noqa: E402
from trendagg.engines import Engine  # noqa: E402

from e2ebench import run  # noqa: E402
from e2ebench.gate import check_against_oracle, count_errors  # noqa: E402
from e2ebench.pipeline import percentile, run_pass  # noqa: E402
from e2ebench.reference import Probe  # noqa: E402
from e2ebench.tracing import Tracer  # noqa: E402
from e2ebench.workloads import WORKLOADS, check_stream, full_stream  # noqa: E402

TINY = (4, 20, 900)


def _inputs(tmp_path, workload):
    schema = tmp_path / "schema.json"
    query = tmp_path / "query.txt"
    stream = tmp_path / "stream.csv"
    TRANSPORT_SCHEMA.to_json(schema)
    query.write_text(workload.query + "\n")
    write_csv_stream(full_stream(replace(workload, full=TINY), seed=3), stream)
    return {"stream": stream, "schema": schema, "query": query}


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "e2ebench/run.py"]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        w.name: w.why for w in WORKLOADS.values()
    }


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_check_stream_agrees_with_oracle(tmp_path, name):
    workload = replace(WORKLOADS[name], check=(2, 20, 1200))
    write_csv_stream(check_stream(workload, seed=5), tmp_path / "check.csv")
    schema = tmp_path / "schema.json"
    TRANSPORT_SCHEMA.to_json(schema)
    errors, rows = check_against_oracle(tmp_path / "check.csv", schema, workload.query, tmp_path)
    assert rows > 0
    assert errors == 0


def test_count_errors_counts_wrong_missing_and_extra_rows():
    header = ["wid", "window_start_ms", "window_end_ms", "k", "COUNT(*)", "SUM(T.wait)"]
    want = [header, ["0", "0", "10", "1", "3", "1.5"], ["0", "0", "10", "2", "4", "2.0"]]
    assert count_errors(want, [header, ["0", "0", "10", "1", "3", "1.5000000000001"],
                               ["0", "0", "10", "2", "4", "2.0"]], 4) == 0
    assert count_errors(want, [header, ["0", "0", "10", "1", "30", "1.5"]], 4) == 2
    assert count_errors(want, want + [["1", "0", "10", "1", "3", "1.5"]], 4) == 1
    assert count_errors(want, [header[:-1]] + want[1:], 4) == 4


def test_traced_pass_writes_the_same_rows_and_accounts_for_its_time(tmp_path):
    inputs = _inputs(tmp_path, WORKLOADS["type-tumble"])
    query_text = inputs["query"].read_text()
    plain = run_pass(inputs["stream"], inputs["schema"], query_text, tmp_path / "plain.csv")
    original_init = Engine.__dict__["__init__"]
    tracer = Tracer().install()
    try:
        traced = run_pass(inputs["stream"], inputs["schema"], query_text, tmp_path / "traced.csv")
    finally:
        tracer.uninstall()
    assert Engine.__dict__["__init__"] is original_init
    assert cli.write_rows.__module__ == "trendagg.cli"
    assert (tmp_path / "plain.csv").read_bytes() == (tmp_path / "traced.csv").read_bytes()

    summary = tracer.summary(traced.elapsed_ns)
    assert sum(summary["self_ns"].values()) + summary["uncovered_ns"] == traced.elapsed_ns
    assert summary["calls"]["windows.ingest"] == plain.events
    assert summary["calls"]["engines.results"] == plain.rows
    assert 0 < tracer.matched < traced.manager.events_ingested
    assert summary["calls"]["engines.step"] == tracer.matched  # tumbling: fan-out 1
    assert percentile(plain.ingest_ns, 100) == max(plain.ingest_ns)


@pytest.mark.parametrize("trace", [0, 1])
def test_run_reports_every_metric_on_a_tiny_workload(trace, capsys):
    workload = replace(WORKLOADS["mixed-slide"], full=TINY, check=(2, 20, 1200))
    result = run.run_workload(workload, seed=3, seconds=0.0, trace=trace)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    reported = result["layers"] if trace else result["metrics"]
    assert set(reported) == {name for name, _ in (run.PER_LAYER if trace else run.END_TO_END)}
    passes = (result["info"]["untraced_passes"], result["info"]["traced_passes"])
    assert passes == ((2, 2) if trace else (4, 0))
    info = result["info"]
    assert info["slowdown"] > 0 and info["raw_events_per_s"] > 0
    run.report(result, trace)
    assert "row_error_rate" in capsys.readouterr().out


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "e2ebench", tmp_path / "e2ebench",
                    ignore=shutil.ignore_patterns("_runs", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "e2ebench/run.py", "--workload", "mixed-slide", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout


def test_probe_samples_while_active_and_is_left_out_of_the_pass(tmp_path):
    probe = Probe()
    with probe:
        until = time.perf_counter() + 0.2
        while time.perf_counter() < until:
            pass
    taken = len(probe.samples)
    assert taken >= 3 and probe.slowdown() > 0
    assert probe.spent_ns >= sum(probe.samples)
    time.sleep(0.05)
    assert len(probe.samples) == taken  # the timer stops with the block

    inputs = _inputs(tmp_path, WORKLOADS["mixed-slide"])
    query_text = inputs["query"].read_text()
    plain = run_pass(inputs["stream"], inputs["schema"], query_text, tmp_path / "plain.csv")
    with probe:
        probed = run_pass(inputs["stream"], inputs["schema"], query_text, tmp_path / "probed.csv", probe)
    assert (tmp_path / "plain.csv").read_bytes() == (tmp_path / "probed.csv").read_bytes()
    assert len(probed.emit_ns) == probed.rows > 0
