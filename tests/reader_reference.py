"""Typed-column CSV rows decoded one cell at a time, by a loop over each
column's converter: the reference that ``events.read_csv_stream``'s
generated per-type decoders and inline time path are tested against.
Every row is read eagerly, and every check raises what the reader does."""

import csv

from trendagg.errors import InputError, MalformedRow, OutOfOrder
from trendagg.events import Event, _infer, _parse_time_ms, max_ms_digits


def coerce(cell, kind, row_number, attr):
    """One cell decoded by its declared kind, or inferred when ``kind`` is
    ``None``; a refused cell is malformed. Only an inferred cell in integer
    form can be refused by ``_infer`` (for more digits than int() reads),
    so the message names an int there."""
    try:
        if kind == "int":
            return int(cell)
        if kind == "float":
            return float(cell)
        if kind == "str":
            return cell
        return _infer(cell)
    except ValueError:
        raise MalformedRow(
            row_number, f"value {cell!r} for {attr} is not a valid {kind or 'int'}"
        ) from None


def read_typed_csv(path, schema):
    """Every event of a ``time,type,<attr>,...`` CSV, as a list."""
    last_ms = -1
    digits = max_ms_digits()
    row_number = 0
    events = []
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            row_number = 1
            if header is None:
                return events
            if len(header) < 2 or [h.strip().lower() for h in header[:2]] != ["time", "type"]:
                raise MalformedRow(1, "header must start with time,type")
            columns = [h.strip() for h in header[2:]]
            assert columns, "the key=value layout has no reference here"
            for i, attr in enumerate(columns):
                if not attr:
                    raise MalformedRow(1, f"column {i + 3} has no name")
                if attr in columns[:i]:
                    raise MalformedRow(1, f"duplicate column {attr!r}")
            for row_number, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != len(header):
                    raise MalformedRow(
                        row_number, f"expected {len(header)} columns, got {len(row)}"
                    )
                cell = row[0].strip()
                time_ms = _parse_time_ms(cell, row_number)
                if digits and time_ms >= 10**digits:
                    raise MalformedRow(
                        row_number, f"time {cell!r} has more than {digits} digits in ms"
                    )
                if time_ms < last_ms:
                    raise OutOfOrder(row_number, last_ms, time_ms)
                last_ms = time_ms
                etype = row[1].strip()
                if not etype:
                    raise MalformedRow(row_number, "empty event type")
                attrs = {}
                for attr, cell in zip(columns, row[2:]):
                    cell = cell.strip()
                    if cell:
                        kind = schema.kind_of(etype, attr) if schema else None
                        attrs[attr] = coerce(cell, kind, row_number, attr)
                events.append(Event(time_ms, etype, attrs))
        except csv.Error as exc:
            raise MalformedRow(row_number + 1, str(exc)) from None
        except UnicodeDecodeError as exc:
            raise InputError(f"input {path}: not UTF-8 text ({exc.reason})") from None
    return events
