"""Event model: events, schemas, and stream readers and generators.

Timestamps are application time in integer milliseconds. CSV files carry
time in (possibly fractional) seconds; values that do not land on a whole
millisecond are rejected rather than rounded.
"""

from __future__ import annotations

import csv
import functools
import itertools
import json
import random
import re
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator, Optional

from .errors import InputError, MalformedRow, OutOfOrder

_KINDS = ("int", "float", "str")


@dataclass(frozen=True, slots=True)
class Event:
    time: int  # milliseconds, >= 0
    etype: str
    attrs: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.time < 0:
            raise ValueError(f"negative event time {self.time}")
        if not self.etype:
            raise ValueError("empty event type")


class Schema:
    """Attribute names and value kinds per event type.

    Kinds are 'int', 'float' or 'str'.
    """

    def __init__(self, types: dict[str, dict[str, str]]):
        for etype, attrs in types.items():
            for attr, kind in attrs.items():
                if kind not in _KINDS:
                    raise ValueError(f"unknown kind {kind!r} for {etype}.{attr}")
        self.types = {t: dict(a) for t, a in types.items()}

    def has_type(self, etype):
        return etype in self.types

    def kind_of(self, etype, attr) -> Optional[str]:
        return self.types.get(etype, {}).get(attr)

    @classmethod
    def from_json(cls, path):
        with open(path, encoding="utf-8-sig") as fh:
            try:
                types = json.load(fh)
            except ValueError as exc:  # not UTF-8 or not JSON
                raise InputError(f"schema {path}: not a JSON file ({exc})") from None
        if not isinstance(types, dict) or not all(
            isinstance(attrs, dict) for attrs in types.values()
        ):
            raise InputError(
                f"schema {path}: expected an object of event types, each an "
                "object of attribute kinds"
            )
        try:
            return cls(types)
        except ValueError as exc:
            raise InputError(f"schema {path}: {exc}") from None

    def to_json(self, path):
        with open(path, "w") as fh:
            json.dump(self.types, fh, indent=2, sort_keys=True)
            fh.write("\n")


def _parse_time_ms(cell, row_number):
    # A fast path for plain ``digits[.digits]``; everything else, and every
    # error, goes through Fraction. The reader inlines ``digits.ddd``.
    whole, dot, frac = cell.partition(".")
    try:
        if whole.isdigit() and cell.isascii() and (frac.isdigit() or not dot):
            frac = frac.rstrip("0")
            if len(frac) <= 3:
                return int(whole) * 1000 + int(frac.ljust(3, "0"))
        seconds = Fraction(cell)
    except (ValueError, ZeroDivisionError):  # also more digits than int() reads
        raise MalformedRow(row_number, f"bad time value {cell!r}") from None
    ms = seconds * 1000
    if ms.denominator != 1:
        raise MalformedRow(row_number, f"time {cell!r} is not a whole millisecond")
    if ms < 0:
        raise MalformedRow(row_number, f"negative time {cell!r}")
    return int(ms)


def max_ms_digits() -> int:
    """The most digits a time or a duration may have in milliseconds, or 0
    for no limit. ``str()`` writes an int of at most
    ``sys.get_int_max_str_digits()`` digits; one fewer each leaves room for
    a window's end, at most a time plus a duration."""
    return max(getattr(sys, "get_int_max_str_digits", lambda: 0)() - 1, 0)


# int() reads at most sys.get_int_max_str_digits() digits, 4,300 by default.
_INTEGER_FORM = re.compile(r"[+-]?\d+(?:_\d+)*").fullmatch


def _infer(cell):
    """An int, else a float, else the string. A cell in integer form that
    int() refuses, for more digits than it reads, raises ``ValueError`` as
    it does under an int schema, instead of reading as a float."""
    try:
        return int(cell)
    except ValueError:
        if _INTEGER_FORM(cell):
            raise
    try:
        return float(cell)
    except ValueError:
        return cell


# Converter per schema kind; a column the schema does not cover is inferred.
_DECODERS = {"int": int, "float": float, "str": str, None: _infer}


def _bad_value(row_number, cell, attr, kind):
    """The error for a cell that its converter refuses: an int or float
    one, or an inferred one in integer form (see ``_infer``)."""
    return MalformedRow(row_number, f"value {cell!r} for {attr} is not a valid {kind or 'int'}")


def _compile_decoder(columns, kinds):
    """``decode(row, row_number)``: a typed-column row's attributes, for
    ``columns`` of ``kinds``, as a generated function. Per column, the
    stripped cell, if not empty, goes through its kind's converter in
    ``_DECODERS``, bound by name (a str cell is kept as it is); a refused
    cell raises ``_bad_value``'s error, formatted at run time. Names enter
    the source only through ``repr()``."""
    lines = ["def decode(row, row_number):", "    attrs = {}"]
    for i, (attr, kind) in enumerate(zip(columns, kinds), start=2):
        lines += [f"    cell = row[{i}].strip()", "    if cell:"]
        if kind == "str":
            lines.append(f"        attrs[{attr!r}] = cell")
            continue
        lines += [
            "        try:",
            f"            attrs[{attr!r}] = {_DECODERS[kind].__name__}(cell)",
            "        except ValueError:",
            f"            raise bad_value(row_number, cell, {attr!r}, {kind!r}) from None",
        ]
    lines += ["    return attrs", ""]
    namespace = {"_infer": _infer, "bad_value": _bad_value}
    exec(compile("\n".join(lines), "<trendagg decoder>", "exec"), namespace)
    return namespace["decode"]


# Events parsed per block. ``read_csv_stream`` parses the first block before
# it returns, and each later one when iteration reaches it.
BLOCK_ROWS = 4096


def read_csv_stream(path, schema: Optional[Schema] = None) -> Iterator[Event]:
    """Read an event stream from a CSV file, one block of rows at a time.

    Two layouts are accepted, chosen by the header:
      * ``time,type`` - every following cell in a row is a ``key=value`` pair;
      * ``time,type,<attr>,...`` - typed columns, empty cell means absent.

    Both layouts strip names and cells of surrounding whitespace. Value
    kinds come from ``schema`` when it covers the event type, otherwise
    they are inferred (int, then float, then string; see ``_infer``). Rows
    must be in non-decreasing time order. Typed-column rows are decoded by
    one generated function per event type in the stream.

    Returns an iterator. The first ``BLOCK_ROWS`` rows are parsed before the
    call returns, so a malformed or backwards row among them raises here
    with its row number; a later one raises when iteration reaches it.
    """
    blocks = _read_blocks(path, schema)
    return itertools.chain(next(blocks, ()), itertools.chain.from_iterable(blocks))


def _read_blocks(path, schema):
    """Lists of at most ``BLOCK_ROWS`` events, in file order.

    A typed-column row is decoded by its event type's generated ``decode``,
    built once per stream by ``_compile_decoder``. A time of more than
    ``max_ms_digits()`` digits in ms is a malformed row. A ``digits.ddd``
    time is read inline, and each ``Event`` is set through its slot descriptors,
    without ``__post_init__``'s re-check of the time and type checked here.
    """

    @functools.cache
    def kind_of(etype, attr):
        return schema.kind_of(etype, attr) if schema else None

    new_object = object.__new__
    set_time, set_etype, set_attrs = Event.time.__set__, Event.etype.__set__, Event.attrs.__set__
    last_ms = -1
    digits = max_ms_digits()
    end_ms = 10**digits if digits else float("inf")  # the first time refused
    row_number = 0  # records read; a csv.Error is in the next one
    decoders = {}  # event type -> its generated decode(row, row_number)
    block = []
    append = block.append
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            row_number = 1
            if header is None:
                return
            if len(header) < 2 or [h.strip().lower() for h in header[:2]] != ["time", "type"]:
                raise MalformedRow(1, "header must start with time,type")
            columns = [h.strip() for h in header[2:]]
            for i, attr in enumerate(columns):
                if not attr:
                    raise MalformedRow(1, f"column {i + 3} has no name")
                if attr in columns[:i]:
                    raise MalformedRow(1, f"duplicate column {attr!r}")
            kv_mode = not columns
            width = len(header)
            for row_number, row in enumerate(reader, start=2):
                if not row:
                    continue
                if kv_mode:
                    if len(row) < 2:
                        raise MalformedRow(row_number, "need at least time and type")
                elif len(row) != width:
                    raise MalformedRow(row_number, f"expected {width} columns, got {len(row)}")
                cell = row[0].strip()
                whole, _, frac = cell.partition(".")
                if len(frac) == 3 and whole.isdigit() and frac.isdigit() and cell.isascii():
                    try:
                        time_ms = int(whole + frac)
                    except ValueError:  # more digits than int() reads: a bad time
                        time_ms = _parse_time_ms(cell, row_number)
                else:
                    time_ms = _parse_time_ms(cell, row_number)
                if not last_ms <= time_ms < end_ms:
                    if time_ms >= end_ms:
                        raise MalformedRow(
                            row_number, f"time {cell!r} has more than {digits} digits in ms"
                        )
                    raise OutOfOrder(row_number, last_ms, time_ms)
                last_ms = time_ms
                etype = row[1].strip()
                if not etype:
                    raise MalformedRow(row_number, "empty event type")
                if kv_mode:
                    attrs = {}
                    for pair in row[2:]:
                        pair = pair.strip()
                        if not pair:
                            continue
                        attr, eq, cell = pair.partition("=")
                        attr, cell = attr.strip(), cell.strip()
                        if not eq:
                            raise MalformedRow(row_number, f"expected key=value, got {pair!r}")
                        if not attr:
                            raise MalformedRow(row_number, f"no attribute name in {pair!r}")
                        if attr in attrs:
                            raise MalformedRow(row_number, f"repeated attribute {attr!r}")
                        kind = kind_of(etype, attr)
                        try:
                            attrs[attr] = _DECODERS[kind](cell)
                        except ValueError:
                            raise _bad_value(row_number, cell, attr, kind) from None
                else:
                    decode = decoders.get(etype)
                    if decode is None:
                        kinds = [kind_of(etype, attr) for attr in columns]
                        decode = decoders[etype] = _compile_decoder(columns, kinds)
                    attrs = decode(row, row_number)
                event = new_object(Event)
                set_time(event, time_ms)
                set_etype(event, etype)
                set_attrs(event, attrs)
                append(event)
                if len(block) == BLOCK_ROWS:
                    yield block
                    block = []
                    append = block.append
        except csv.Error as exc:  # e.g. a field over the csv module's size limit
            raise MalformedRow(row_number + 1, str(exc)) from None
        except UnicodeDecodeError as exc:
            raise InputError(f"input {path}: not UTF-8 text ({exc.reason})") from None
    if block:
        yield block


def _format_seconds(ms: int) -> str:
    if ms % 1000 == 0:
        return str(ms // 1000)
    return f"{ms // 1000}.{ms % 1000:03d}"


def format_cell(value) -> str:
    """A CSV cell: empty for ``None``, a float's ``repr``, else ``str``."""
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_csv_stream(events: Iterable[Event], path):
    """Write events as a typed-column CSV that read_csv_stream round-trips."""
    events = list(events)
    columns = sorted({a for ev in events for a in ev.attrs})
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time", "type", *columns])
        for ev in events:
            cells = [format_cell(ev.attrs.get(attr)) for attr in columns]
            writer.writerow([_format_seconds(ev.time), ev.etype, *cells])


def infer_schema(events: Iterable[Event]) -> Schema:
    """Schema observed from events, widening kinds int -> float -> str."""
    rank = {"int": 0, "float": 1, "str": 2}
    types: dict[str, dict[str, str]] = {}
    for ev in events:
        attrs = types.setdefault(ev.etype, {})
        for name, value in ev.attrs.items():
            if isinstance(value, int):
                kind = "int"
            elif isinstance(value, float):
                kind = "float"
            else:
                kind = "str"
            if name not in attrs or rank[kind] > rank[attrs[name]]:
                attrs[name] = kind
    return Schema(types)


TRANSPORT_SCHEMA = Schema(
    {"Trip": {"passenger": "int", "station": "int", "wait": "float"}}
)


def generate_transport_stream(passengers, stations, duration, seed) -> list:
    """Synthetic public-transport workload.

    Each of ``passengers`` passengers takes one trip per ~30 seconds of
    ``duration`` (at least one), at a uniformly random time within the
    duration, boarding at a random station with a uniformly random waiting
    time. Deterministic for a fixed seed.
    """
    if passengers < 1 or stations < 1 or duration < 1:
        raise ValueError("passengers, stations and duration must all be >= 1")
    rng = random.Random(seed)
    legs = max(1, int(duration) // 30)
    records = []
    for passenger in range(passengers):
        for _ in range(legs):
            records.append(
                (
                    rng.randint(0, int(duration) * 1000),
                    passenger,
                    rng.randrange(stations),
                    round(rng.uniform(0.0, 30.0), 3),
                )
            )
    records.sort(key=lambda r: r[0])
    return [
        Event(
            time=t,
            etype="Trip",
            attrs={"passenger": passenger, "station": station, "wait": wait},
        )
        for (t, passenger, station, wait) in records
    ]
