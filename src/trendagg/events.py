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


_new_object = object.__new__
_set_time = Event.time.__set__
_set_etype = Event.etype.__set__
_set_attrs = Event.attrs.__set__


def _trusted_event(time, etype, attrs) -> Event:
    """An ``Event`` whose time and type the caller has already checked: set
    through the slot descriptors, without ``__post_init__``'s re-check."""
    event = _new_object(Event)
    _set_time(event, time)
    _set_etype(event, etype)
    _set_attrs(event, attrs)
    return event


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
    # Fast paths for plain ``digits.ddd`` and ``digits[.digits]``; everything
    # else, and every error, goes through Fraction.
    whole, dot, frac = cell.partition(".")
    if len(frac) == 3 and whole.isdigit() and frac.isdigit() and cell.isascii():
        return int(whole + frac)
    if whole.isdigit() and cell.isascii() and (frac.isdigit() or not dot):
        frac = frac.rstrip("0")
        if len(frac) <= 3:
            return int(whole) * 1000 + int(frac.ljust(3, "0"))
    try:
        seconds = Fraction(cell)
    except (ValueError, ZeroDivisionError):
        raise MalformedRow(row_number, f"bad time value {cell!r}") from None
    ms = seconds * 1000
    if ms.denominator != 1:
        raise MalformedRow(row_number, f"time {cell!r} is not a whole millisecond")
    if ms < 0:
        raise MalformedRow(row_number, f"negative time {cell!r}")
    return int(ms)


def _coerce(cell, kind, row_number, attr):
    """One cell decoded by its declared kind: the reference for the readers'
    converters and their error message."""
    try:
        if kind == "int":
            return int(cell)
        if kind == "float":
            return float(cell)
        return cell
    except ValueError:
        raise MalformedRow(
            row_number, f"value {cell!r} for {attr} is not a valid {kind}"
        ) from None


def _infer(cell):
    try:
        return int(cell)
    except ValueError:
        pass
    try:
        return float(cell)
    except ValueError:
        return cell


# Converter per schema kind; a column the schema does not cover is inferred.
_DECODERS = {"int": int, "float": float, "str": str, None: _infer}


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
    they are inferred (int, then float, then string). Rows must be in
    non-decreasing time order.

    Returns an iterator. The first ``BLOCK_ROWS`` rows are parsed before the
    call returns, so a malformed or backwards row among them raises here
    with its row number; a later one raises when iteration reaches it.
    """
    blocks = _read_blocks(path, schema)
    return itertools.chain(next(blocks, ()), itertools.chain.from_iterable(blocks))


def _read_blocks(path, schema):
    """Lists of at most ``BLOCK_ROWS`` events, in file order."""

    @functools.cache
    def kind_of(etype, attr):
        return schema.kind_of(etype, attr) if schema else None

    last_ms = -1
    row_number = 0  # records read; a csv.Error is in the next one
    column_decoders = {}  # event type -> (attr, converter) per column
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
            for row_number, row in enumerate(reader, start=2):
                if not row:
                    continue
                if kv_mode:
                    if len(row) < 2:
                        raise MalformedRow(row_number, "need at least time and type")
                else:
                    if len(row) != len(header):
                        raise MalformedRow(
                            row_number,
                            f"expected {len(header)} columns, got {len(row)}",
                        )
                time_ms = _parse_time_ms(row[0].strip(), row_number)
                if time_ms < last_ms:
                    raise OutOfOrder(row_number, last_ms, time_ms)
                last_ms = time_ms
                etype = row[1].strip()
                if not etype:
                    raise MalformedRow(row_number, "empty event type")
                attrs = {}
                try:
                    if kv_mode:
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
                            attrs[attr] = _DECODERS[kind_of(etype, attr)](cell)
                    else:
                        decoders = column_decoders.get(etype)
                        if decoders is None:
                            decoders = column_decoders[etype] = [
                                (attr, _DECODERS[kind_of(etype, attr)]) for attr in columns
                            ]
                        for (attr, convert), cell in zip(decoders, row[2:]):
                            cell = cell.strip()
                            if cell:
                                attrs[attr] = convert(cell)
                except ValueError:  # only a declared kind's converter raises
                    raise MalformedRow(
                        row_number,
                        f"value {cell!r} for {attr} is not a valid {kind_of(etype, attr)}",
                    ) from None
                append(_trusted_event(time_ms, etype, attrs))
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
