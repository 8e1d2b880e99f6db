"""Timed passes of one workload, in a process of their own.

Run by ``run.py``; its peak RSS is the workload's. After one untimed
warm-up pass, repeats the pipeline pass until the next one would end more
than ``--seconds`` after the start, with at least ``MIN_PASSES`` timed
passes. Every untraced pass runs under a ``reference.Probe``; the pass's
slowdown is reported with its raw time, and its latency samples are
scaled before they are pooled. With ``--trace 1`` untraced and traced
passes alternate, so that their ratio is the tracing overhead. Every
pass's output must equal the warm-up pass's, row for row. Prints one JSON
object.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import time
from array import array
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from e2ebench.gate import count_errors, key_columns, read_rows  # noqa: E402
from e2ebench.pipeline import percentile, run_pass  # noqa: E402
from e2ebench.reference import Probe  # noqa: E402
from e2ebench.tracing import Tracer  # noqa: E402

MIN_PASSES = 4


def layer_metrics(tracer: Tracer, result) -> dict:
    summary = tracer.summary(result.elapsed_ns)
    self_s = {name: ns / 1e9 for name, ns in summary["self_ns"].items()}
    calls = summary["calls"]
    manager = result.manager
    matched = tracer.matched
    steps = calls["engines.step"]
    return {
        "events.read_s": self_s["events.read"],
        "events.read_us_per_event": self_s["events.read"] * 1e6 / result.events,
        "query.parse_s": self_s["query.parse"],
        "query.role_probe_s": self_s["query.role_probe"],
        "query.matched_events": matched,
        "query.matched_share": matched / result.events,
        "windows.self_s": self_s["windows.ingest"],
        "windows.windows_of_s": self_s["windows.windows_of"],
        "windows.close_s": self_s["windows.close_expired"] + self_s["windows.finish"],
        "windows.fanout": steps / max(matched, 1),
        "windows.instances": calls["engines.init"],
        "windows.rows_suppressed": calls["engines.init"] - manager.rows_emitted,
        "windows.events_ingested": manager.events_ingested,
        "windows.rows_emitted": manager.rows_emitted,
        "windows.peak_entries": manager.peak_entries,
        "engines.init_s": self_s["engines.init"],
        "engines.init_calls": calls["engines.init"],
        "engines.step_self_s": self_s["engines.step"],
        "engines.step_calls": steps,
        "engines.results_s": self_s["engines.results"],
        "kernels.step_s": self_s["kernels.step"],
        "kernels.pred_accesses": tracer.pred_accesses,
        "kernels.pred_accesses_per_step": tracer.pred_accesses / max(steps, 1),
        "cli.write_s": self_s["cli.write"],
        "cli.rows_written": result.rows,
        "trace.uncovered_s": summary["uncovered_ns"] / 1e9,
    }


def pass_summary(result) -> dict:
    return {
        "seconds": result.elapsed_ns / 1e9,
        "events": result.events,
        "rows": result.rows,
        "peak_entries": result.manager.peak_entries,
    }


def latencies(ingest_ns, emit_ns) -> dict:
    """Percentiles of the scaled samples of every untraced pass, pooled."""
    return {
        "ingest_p50_us": percentile(ingest_ns, 50) / 1e3,
        "ingest_p99_us": percentile(ingest_ns, 99) / 1e3,
        "emit_latency_p50_ms": percentile(emit_ns, 50) / 1e6,
        "emit_latency_p90_ms": percentile(emit_ns, 90) / 1e6,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--stream", required=True)
    parser.add_argument("--schema", required=True)
    parser.add_argument("--query", required=True, help="query text file")
    parser.add_argument("--out", required=True, help="result CSV of each pass")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="where to write the last traced pass's spans")
    args = parser.parse_args(argv)

    deadline = time.perf_counter() + args.seconds
    query_text = Path(args.query).read_text()
    passes = []
    ingest_ns = array("d")  # scaled samples of the untraced passes
    emit_ns = array("d")
    max_rss_mb = None
    last_seconds = {}
    expected_rows = None
    nkey = 0
    rows_checked = row_errors = 0
    error = None
    tracer = None
    while True:
        warm_up = expected_rows is None
        traced = bool(args.trace) and len(passes) % 2 == 1
        gc.collect()
        pass_tracer = Tracer().install() if traced else None
        try:
            if traced:
                result = run_pass(args.stream, args.schema, query_text, args.out)
            else:
                probe = Probe()
                with probe:
                    result = run_pass(args.stream, args.schema, query_text, args.out, probe)
        except Exception as exc:  # a failing pass fails all its rows
            error = f"{type(exc).__name__}: {exc}"
            if expected_rows is not None:
                rows_checked += len(expected_rows) - 1
                row_errors += len(expected_rows) - 1
            break
        finally:
            if pass_tracer is not None:
                pass_tracer.uninstall()
        rows = read_rows(args.out)
        if warm_up:  # untimed; its rows are the ones every later pass must write
            expected_rows = rows
            nkey = key_columns(result.manager.query)
            # The pipeline's peak; later the pooled samples add to the RSS.
            max_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            continue
        rows_checked += len(expected_rows) - 1
        row_errors += count_errors(expected_rows, rows, nkey, same=str.__eq__)

        summary = pass_summary(result)
        summary["traced"] = traced
        if traced:
            summary["layers"] = layer_metrics(pass_tracer, result)
            tracer = pass_tracer
        else:
            slowdown = summary["slowdown"] = probe.slowdown()
            ingest_ns.extend(ns / slowdown for ns in result.ingest_ns)
            emit_ns.extend(ns / slowdown for ns in result.emit_ns)
        del result
        passes.append(summary)
        last_seconds[traced] = summary["seconds"]

        following = bool(args.trace) and len(passes) % 2 == 1
        expected = last_seconds.get(following, summary["seconds"])
        if len(passes) >= MIN_PASSES and time.perf_counter() + expected > deadline:
            if not args.trace or len(passes) % 2 == 0:
                break

    if tracer is not None and args.spans:
        tracer.write(args.spans)
    print(
        json.dumps(
            {
                "passes": passes,
                "rows_checked": rows_checked,
                "row_errors": row_errors,
                "error": error,
                "latencies": latencies(ingest_ns, emit_ns) if ingest_ns else {},
                "max_rss_mb": max_rss_mb,
                "wrapped_kernels": tracer.wrapped_kernels if tracer else [],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
