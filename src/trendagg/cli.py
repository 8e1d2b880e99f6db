"""Command line interface.

Subcommands:

    run     evaluate a query over a CSV stream with the incremental engine
    oracle  same, but by explicit trend enumeration (slow; for checking)
    gen     write a synthetic public-transport stream

``run`` and ``oracle`` print the same CSV shape:

    wid,window_start_ms,window_end_ms,<partition attrs...>,<aggregates...>

one row per (window, partition key) that produced at least one trend
(``--emit-empty`` keeps the zero-trend rows of keys that did match events).
Everything diagnostic goes to stderr; stdout carries only rows.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import itertools
import os
import shutil
import sys
import tempfile
from contextlib import ExitStack, contextmanager

from .errors import InputError, OutOfOrder, TrendAggError
from .events import (
    TRANSPORT_SCHEMA,
    Schema,
    format_cell,
    generate_transport_stream,
    infer_schema,
    read_csv_stream,
    write_csv_stream,
)
from .oracle import DEFAULT_CAP, aggregate_trends, enumerate_trends
from .query import (
    Query,
    RoleProbe,
    Semantics,
    aggregate_names,
    check_supported,
    load_query,
)
from .windows import ResultRow, WindowManager, WindowSpec, route, windows_of


def result_header(query: Query) -> list:
    return [
        "wid",
        "window_start_ms",
        "window_end_ms",
        *query.partition_attrs,
        *aggregate_names(query),
    ]


def write_rows(rows, query: Query, fh) -> int:
    writer = csv.writer(fh)
    writer.writerow(result_header(query))
    names = aggregate_names(query)
    n = 0
    for row in rows:
        values = row.values
        writer.writerow(
            [
                row.wid,
                row.window_start_ms,
                row.window_end_ms,
                *map(format_cell, row.key),
                *[format_cell(values[name]) for name in names],
            ]
        )
        n += 1
    return n


@contextmanager
def _load(args):
    """The query and its event stream, for the length of the block.

    Without ``--schema`` the input is read twice: once to infer each
    column's kind, then to decode every cell by its column's kind, as a
    declared schema would. An input that is not a regular file, such as a
    pipe, cannot be read twice; it is first copied to a temporary file.
    """
    with ExitStack() as stack:
        path = args.input
        if args.schema:
            schema = Schema.from_json(args.schema)
        else:
            if not os.path.isfile(path):
                path = stack.enter_context(_spooled(path))
            schema = infer_schema(read_csv_stream(path))
        events = read_csv_stream(path, schema=schema)
        query = load_query(args.query, schema)
        if getattr(args, "semantics", None):
            query = dataclasses.replace(query, semantics=Semantics(args.semantics))
        yield query, events


@contextmanager
def _spooled(path):
    """A temporary copy of the file at ``path``, removed on exit."""
    with tempfile.TemporaryDirectory(prefix="trendagg-") as tmp:
        copy = os.path.join(tmp, "input.csv")
        with open(path, "rb") as source, open(copy, "wb") as target:
            shutil.copyfileobj(source, target)
        yield copy


def _write_out(rows, query: Query, path) -> int:
    """Write evaluated rows to ``path``, or to stdout. Callers evaluate every
    row first, so a user error mid-stream leaves no partial output."""
    if path in (None, "-"):
        return write_rows(rows, query, sys.stdout)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        return write_rows(rows, query, fh)


def cmd_run(args) -> int:
    with _load(args) as (query, events):
        manager = WindowManager(query, emit_empty=args.emit_empty)
        rows = list(manager.run(events))
    n = _write_out(rows, query, args.output)
    print(
        f"{manager.events_ingested} events -> {n} rows, "
        f"peak state {manager.peak_entries} entries",
        file=sys.stderr,
    )
    return 0


def oracle_rows(query: Query, events, cap: int = DEFAULT_CAP, emit_empty: bool = False):
    """Result rows computed by explicit enumeration, per window and key.

    Events are routed as by ``WindowManager``: a matchable event opens the
    slots of all its windows, a gap event joins only slots already open.
    A window's slots are enumerated and dropped as the window closes, by
    the manager's rule: an event at or past its end arrives, or the stream
    ends. Raises ``OutOfOrder``, as the manager does, when an event's time
    is below its predecessor's.
    """
    check_supported(query)
    spec = WindowSpec(query.within_ms, query.slide_ms)
    probe = RoleProbe(query)
    attrs = query.partition_attrs
    cont = query.semantics is Semantics.CONT
    # Open window id -> key -> events. A window an event opens ends after
    # every open one, so the ids are in ascending order.
    windows: dict = {}

    def close(now):
        while windows and spec.end_of(wid := next(iter(windows))) <= now:
            slots = windows.pop(wid)
            for key in sorted(slots):
                trends = enumerate_trends(slots[key], query, cap=cap)
                first = next(trends, None)
                if first is None and not emit_empty:
                    continue
                yield ResultRow(
                    wid=wid,
                    window_start_ms=spec.start_of(wid),
                    window_end_ms=spec.end_of(wid),
                    key=key,
                    values=aggregate_trends(
                        itertools.chain((first,) if first else (), trends),
                        query.aggregates,
                    ),
                )

    last = 0
    for number, event in enumerate(events, 1):
        if event.time < last:
            raise OutOfOrder(number, last, event.time)
        last = event.time
        yield from close(last)
        routed = route(event, probe, attrs, cont)
        if routed is None:
            continue
        roles, key = routed
        for wid in windows_of(event.time, spec):
            if roles:
                windows.setdefault(wid, {}).setdefault(key, []).append(event)
            elif key in windows.get(wid, ()):
                windows[wid][key].append(event)
    yield from close(float("inf"))


def cmd_oracle(args) -> int:
    read = 0

    def counted(events):
        nonlocal read
        for read, event in enumerate(events, 1):
            yield event

    with _load(args) as (query, events):
        rows = list(oracle_rows(query, counted(events), args.oracle_cap, args.emit_empty))
    n = _write_out(rows, query, args.output)
    print(f"{read} events -> {n} rows (oracle)", file=sys.stderr)
    return 0


def cmd_gen(args) -> int:
    try:
        events = generate_transport_stream(
            args.passengers, args.stations, args.duration, args.seed
        )
    except ValueError as exc:  # a count or duration below 1
        raise InputError(str(exc)) from None
    write_csv_stream(events, args.output)
    if args.schema_out:
        TRANSPORT_SCHEMA.to_json(args.schema_out)
    print(f"wrote {len(events)} events to {args.output}", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trendagg",
        description="Aggregate event trends matched by Kleene patterns over sliding windows.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def io_args(p):
        p.add_argument("--query", required=True, help="query text file")
        p.add_argument("--input", required=True, help="input stream CSV")
        p.add_argument("--schema", help="schema JSON (inferred from the stream if omitted)")
        p.add_argument("--output", help="output CSV (default: stdout)")
        p.add_argument(
            "--emit-empty",
            action="store_true",
            help="keep zero-trend rows for keys that matched events",
        )
        p.add_argument(
            "--semantics",
            choices=("any", "next", "cont"),
            help="override the query's SEMANTICS clause",
        )

    p_run = sub.add_parser("run", help="evaluate a query with the incremental engine")
    io_args(p_run)
    p_run.set_defaults(func=cmd_run)

    p_oracle = sub.add_parser(
        "oracle", help="evaluate a query by explicit trend enumeration (slow)"
    )
    io_args(p_oracle)
    p_oracle.add_argument(
        "--oracle-cap",
        type=int,
        default=DEFAULT_CAP,
        help=(
            "abort once a window and key yield more than this many trends of "
            "the query's semantics; bounds enumeration time (default %(default)s)"
        ),
    )
    p_oracle.set_defaults(func=cmd_oracle)

    p_gen = sub.add_parser("gen", help="write a synthetic public-transport stream")
    p_gen.add_argument("--output", required=True, help="output stream CSV")
    p_gen.add_argument("--passengers", type=int, default=100)
    p_gen.add_argument("--stations", type=int, default=10)
    p_gen.add_argument("--duration", type=int, default=3600, help="stream length in seconds")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--schema-out", help="also write the stream's schema JSON here")
    p_gen.set_defaults(func=cmd_gen)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except TrendAggError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:  # e.g. `trendagg run ... | head`
        return 0
    except OSError as exc:  # a missing or unreadable file
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
