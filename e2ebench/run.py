"""trendagg end-to-end benchmark.

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1

For one workload (or ``all``) this

1. checks the pipeline's rows against ``cli.oracle_rows`` on a check-sized
   stream from the same generator and query;
2. times set-up in fresh interpreters (import, schema, parse, manager);
3. writes the full generated stream to CSV and, in a worker process,
   replays it through read -> parse -> ingest/finish -> write for S
   seconds, one event at a time in a closed loop, checking that every pass
   writes the same rows;
4. prints every metric by name with its unit, then, as the last line, one
   JSON object ``{"correct", "attempted", "failed", "metrics"}``: the
   end-to-end metrics with ``--trace 0``, the per-layer metrics of traced
   passes with ``--trace 1``.

End-to-end numbers always come from untraced passes: throughput from the
median pass, latency percentiles from the samples of all of a run's passes
pooled. The per-layer breakdown is that of the traced pass of median
length. Every timing is scaled by a ``reference.Probe`` slowdown: a timer
signal every 20 ms interrupts the pass to time a fixed slice of
pure-Python work, and each pass's time and latency samples are divided by
how much slower than nominal its slices ran, so that they read as on a
machine where a slice takes ``reference.NOMINAL_NS``. This takes out most
of the speed changes that other tenants of a shared host cause; the
unscaled throughput and the slowdown are printed beside the metrics. The
ingest p99 and emit p90 latencies are printed but left out of the result
line (see ``UNGATED``). The exit code is 0 when every checked row is
right, 1 when some are not, 2 when the program cannot be found or run.
Inputs, outputs and traces live under ``e2ebench/_runs``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "e2ebench"
SRC = ROOT / "src"
RUNS = BENCH / "_runs"
BASELINE = BENCH / "baseline.json"
SETUP_PROBES = 11  # timed fresh-interpreter set-ups per run, after one warm-up

LATENCIES = ("ingest_p50_us", "emit_latency_p50_ms")
# Printed, but left out of the result line: their spread between runs of
# the same code on a shared host is wider than any bound they could have.
UNGATED = (("ingest_p99_us", "us"), ("emit_latency_p90_ms", "ms"))

# (name, unit) in the order they are printed; BENCHMARK.json lists the same.
END_TO_END = (
    ("events_per_s", "1/s"),
    ("ingest_p50_us", "us"),
    ("emit_latency_p50_ms", "ms"),
    ("setup_s", "s"),
    ("peak_state_entries", "count"),
    ("max_rss_mb", "MB"),
)
PER_LAYER = (
    ("events.read_s", "s"),
    ("events.read_us_per_event", "us"),
    ("query.parse_s", "s"),
    ("query.role_probe_s", "s"),
    ("query.matched_events", "count"),
    ("query.matched_share", "ratio"),
    ("windows.self_s", "s"),
    ("windows.windows_of_s", "s"),
    ("windows.close_s", "s"),
    ("windows.fanout", "ratio"),
    ("windows.instances", "count"),
    ("windows.rows_suppressed", "count"),
    ("windows.events_ingested", "count"),
    ("windows.rows_emitted", "count"),
    ("windows.peak_entries", "count"),
    ("engines.init_s", "s"),
    ("engines.init_calls", "count"),
    ("engines.step_self_s", "s"),
    ("engines.step_calls", "count"),
    ("engines.results_s", "s"),
    ("kernels.step_s", "s"),
    ("kernels.pred_accesses", "count"),
    ("kernels.pred_accesses_per_step", "ratio"),
    ("cli.write_s", "s"),
    ("cli.rows_written", "count"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.uncovered_s", "s"),
)


def src_line_counts() -> dict:
    counts = {"hand_written": 0, "generated": 0}
    for path in sorted(SRC.rglob("*")):
        if path.suffix in (".py", ".pyx"):
            kind = "hand_written"
        elif path.suffix == ".c":
            kind = "generated"
        else:
            continue
        with open(path, "rb") as fh:
            counts[kind] += sum(1 for _ in fh)
    return counts


def baseline_backend():
    try:
        with open(BASELINE) as fh:
            return json.load(fh).get("backend")
    except (OSError, ValueError):
        return None


def time_setup(schema_path, query_path) -> list:
    """Set-up seconds in each of SETUP_PROBES fresh interpreters, each
    divided by the slowdown its own probe measured."""
    probe = [sys.executable, str(BENCH / "setup_probe.py"), str(SRC), str(schema_path), str(query_path)]
    times = []
    for _ in range(1 + SETUP_PROBES):  # the first one also compiles bytecode
        done = subprocess.run(probe, capture_output=True, text=True, timeout=60, cwd=ROOT)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
        seconds, slowdown = map(float, done.stdout.split())
        times.append(seconds / slowdown)
    return times[1:]


def run_worker(paths: dict, seconds: float, trace: int, spans_path) -> dict:
    command = [sys.executable, str(BENCH / "worker.py")]
    for flag, value in paths.items():
        command += [f"--{flag}", str(value)]
    command += ["--seconds", repr(seconds), "--trace", str(trace), "--spans", str(spans_path)]
    done = subprocess.run(
        command, capture_output=True, text=True, timeout=seconds + 90, cwd=ROOT
    )
    if done.returncode != 0:
        raise RuntimeError(f"worker failed: {done.stderr.strip()[-2000:]}")
    return json.loads(done.stdout.splitlines()[-1])


def run_workload(workload, seed: int, seconds: float, trace: int) -> dict:
    from trendagg import TRANSPORT_SCHEMA, write_csv_stream
    from trendagg.kernels import backend_name, get_backend

    from e2ebench.gate import check_against_oracle
    from e2ebench.workloads import check_stream, full_stream

    work = RUNS / f"{workload.name}-s{seed}-p{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        schema_path = work / "schema.json"
        query_path = work / "query.txt"
        TRANSPORT_SCHEMA.to_json(schema_path)
        query_path.write_text(workload.query + "\n")

        check = check_stream(workload, seed)
        write_csv_stream(check, work / "check.csv")
        check_errors, check_rows = check_against_oracle(
            work / "check.csv", schema_path, workload.query, work
        )

        stream = full_stream(workload, seed)
        write_csv_stream(stream, work / "stream.csv")
        n_events = len(stream)
        del stream

        setup_times = time_setup(schema_path, query_path)
        out = run_worker(
            {
                "stream": work / "stream.csv",
                "schema": schema_path,
                "query": query_path,
                "out": work / "out.csv",
            },
            seconds,
            trace,
            RUNS / f"spans-{workload.name}.csv",
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)

    passes = out["passes"]
    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    attempted = check_rows + out["rows_checked"]
    failed = check_errors + out["row_errors"]
    if out["error"] is not None and not untraced:
        failed = attempted = max(attempted, 1)

    # Timings are divided by how much slower than nominal the machine ran
    # the probe's fixed work (reference.py): each pass's time by its own
    # slowdown; latencies and set-up times come scaled; per-layer times,
    # from traced passes that run without a probe, by the run's median.
    factor = statistics.median(p["slowdown"] for p in untraced) if untraced else 1.0
    metrics = {}
    if untraced:
        pass_s = statistics.median(p["seconds"] / p["slowdown"] for p in untraced)
        raw_pass_s = statistics.median(p["seconds"] for p in untraced)
        metrics = {
            "events_per_s": untraced[0]["events"] / pass_s,
            **{name: out["latencies"][name] for name in LATENCIES},
            "setup_s": statistics.median(setup_times),
            "peak_state_entries": untraced[0]["peak_entries"],
            "max_rss_mb": out["max_rss_mb"],
        }
    layers = {}
    if traced:
        by_time = sorted(traced, key=lambda p: p["seconds"])
        median_traced = by_time[(len(by_time) - 1) // 2]
        units = dict(PER_LAYER)
        layers = {
            name: value / factor if units[name] in ("s", "us") else value
            for name, value in median_traced["layers"].items()
        }
        if untraced:
            layers["trace.overhead_ratio"] = statistics.median(
                p["seconds"] for p in traced
            ) / raw_pass_s

    backend = backend_name(get_backend())
    expected_backend = baseline_backend()
    return {
        "workload": workload.name,
        "correct": failed == 0 and out["error"] is None,
        "attempted": attempted,
        "failed": failed,
        "error": out["error"],
        "metrics": metrics,
        "layers": layers,
        "info": {
            "backend": backend,
            "comparable": expected_backend is None or backend == expected_backend,
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "seed": seed,
            "events": n_events,
            "check_events": len(check),
            "check_rows": check_rows,
            "rows": untraced[0]["rows"] if untraced else None,
            "slowdown": factor,
            "raw_events_per_s": untraced[0]["events"] / raw_pass_s if untraced else None,
            "ungated": {name: out["latencies"][name] for name, _ in UNGATED if name in out["latencies"]},
            "untraced_passes": len(untraced),
            "traced_passes": len(traced),
            "wrapped_kernels": out["wrapped_kernels"],
            "setup_probes": len(setup_times),
            "src_lines": src_line_counts(),
        },
    }


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def report(result: dict, trace: int) -> None:
    info = result["info"]
    comparable = "" if info["comparable"] else "  NOT COMPARABLE with the baseline backend"
    print(f"== {result['workload']}  seed {info['seed']}  backend {info['backend']}{comparable}")
    if result["error"]:
        print(f"   error: {result['error']}")
    values, names = (result["layers"], PER_LAYER) if trace else (result["metrics"], END_TO_END)
    for name, unit in names:
        if name in values:
            print(f"   {name:<32} {_fmt(values[name]):>14} {unit}")
    if not trace:
        for name, unit in UNGATED:
            if name in info["ungated"]:
                print(f"   {name:<32} {_fmt(info['ungated'][name]):>14} {unit}  (not in the result line)")
    rate = result["failed"] / result["attempted"]
    print(
        f"   {'row_error_rate':<32} {_fmt(rate):>14} ratio"
        f"  ({result['failed']} of {result['attempted']} checked rows)"
    )
    print(
        f"   events {info['events']} (check {info['check_events']}), rows {info['rows']}"
        f" (check {info['check_rows']}); samples per pass: ingest {info['events']},"
        f" emit {info['rows']}; passes {info['untraced_passes']} untraced,"
        f" {info['traced_passes']} traced; set-up probes {info['setup_probes']}"
    )
    if info["raw_events_per_s"] is not None:
        print(
            f"   probe slowdown {_fmt(info['slowdown'])} (1 = nominal speed; median over"
            " passes);"
            f" unscaled events_per_s {_fmt(info['raw_events_per_s'])}"
        )
    print(
        f"   python {info['python']}, nproc {info['nproc']}, src lines"
        f" {info['src_lines']['hand_written']} hand-written +"
        f" {info['src_lines']['generated']} generated"
    )
    if trace:
        print(f"   kernel classes traced: {', '.join(info['wrapped_kernels']) or 'none'}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="trendagg end-to-end benchmark")
    parser.add_argument("--workload", required=True, help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "trendagg" / "__init__.py").is_file():
        print(f"error: trendagg sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    from trendagg import TrendAggError

    from e2ebench.workloads import WORKLOADS

    if args.workload == "all":
        chosen = list(WORKLOADS.values())
    elif args.workload in WORKLOADS:
        chosen = [WORKLOADS[args.workload]]
    else:
        print(f"error: unknown workload {args.workload!r} (have: {', '.join(WORKLOADS)}, all)", file=sys.stderr)
        return 2

    try:
        results = [run_workload(w, args.seed, args.seconds, args.trace) for w in chosen]
    except (TrendAggError, RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for result in results:
        report(result, args.trace)

    key = "layers" if args.trace else "metrics"
    units = dict(PER_LAYER if args.trace else END_TO_END)
    metrics = {}
    for result in results:
        prefix = "" if len(results) == 1 else f"{result['workload']}/"
        for name, value in result[key].items():
            metrics[prefix + name] = {"value": value, "unit": units[name]}
    correct = all(r["correct"] for r in results)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": sum(r["attempted"] for r in results),
                "failed": sum(r["failed"] for r in results),
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
