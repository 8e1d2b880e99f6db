import csv
import dataclasses
import tracemalloc
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trendagg import (
    Event,
    InputError,
    MalformedRow,
    OutOfOrder,
    Schema,
    TRANSPORT_SCHEMA,
    generate_transport_stream,
    infer_schema,
    read_csv_stream,
    write_csv_stream,
)
from trendagg import events as events_module
from trendagg.events import BLOCK_ROWS, _parse_time_ms

from reader_reference import read_typed_csv


def test_event_validation():
    ev = Event(1500, "A", {"v": 3})
    assert ev.time == 1500 and ev.etype == "A" and ev.attrs["v"] == 3
    with pytest.raises(ValueError):
        Event(-1, "A")
    with pytest.raises(ValueError):
        Event(0, "")


def test_schema_lookup():
    s = Schema({"A": {"v": "int", "name": "str"}})
    assert s.has_type("A") and not s.has_type("B")
    assert s.kind_of("A", "v") == "int"
    assert s.kind_of("A", "missing") is None
    assert s.kind_of("B", "v") is None
    with pytest.raises(ValueError):
        Schema({"A": {"v": "double"}})


def test_schema_json_roundtrip(tmp_path):
    s = Schema({"A": {"v": "int"}, "B": {"w": "float"}})
    path = tmp_path / "schema.json"
    s.to_json(path)
    assert Schema.from_json(path).types == s.types


def _write(tmp_path, text):
    path = tmp_path / "stream.csv"
    path.write_text(text)
    return path


def test_read_typed_columns(tmp_path):
    path = _write(
        tmp_path,
        "time,type,v,name\n"
        "0,A,1,x\n"
        "1.5,B,,y\n"
        "2.25,A,7,\n",
    )
    events = list(read_csv_stream(path))
    assert [e.time for e in events] == [0, 1500, 2250]
    assert events[0].attrs == {"v": 1, "name": "x"}
    assert events[1].attrs == {"name": "y"}  # empty cell means absent
    assert events[2].attrs == {"v": 7}


def test_read_key_value_mode(tmp_path):
    path = _write(
        tmp_path,
        "time,type\n"
        "0,A,v=1\n"
        "1,B,v=2,name=hi\n"
        "2,C\n"
        "3,A,v = 5, name =  x \n",
    )
    events = list(read_csv_stream(path))
    assert events[0].attrs == {"v": 1}
    assert events[1].attrs == {"v": 2, "name": "hi"}
    assert events[2].attrs == {}
    # Names and values are stripped like typed header names and cells.
    assert events[3].attrs == {"v": 5, "name": "x"}


def test_read_with_schema_coercion(tmp_path):
    schema = Schema({"A": {"v": "float", "tag": "str"}})
    path = _write(tmp_path, "time,type,v,tag\n0,A,3,007\n")
    (ev,) = list(read_csv_stream(path, schema=schema))
    assert ev.attrs["v"] == 3.0 and isinstance(ev.attrs["v"], float)
    assert ev.attrs["tag"] == "007"  # schema says string, no int inference


def test_read_rejects_bad_rows(tmp_path):
    with pytest.raises(MalformedRow):
        read_csv_stream(_write(tmp_path, "when,type\n"))
    with pytest.raises(MalformedRow):
        read_csv_stream(_write(tmp_path, "time,type,v\n0,A\n"))
    with pytest.raises(MalformedRow):
        read_csv_stream(_write(tmp_path, "time,type\nnoon,A\n"))
    with pytest.raises(MalformedRow):
        # 0.0001 s is a tenth of a millisecond
        read_csv_stream(_write(tmp_path, "time,type\n0.0001,A\n"))
    with pytest.raises(MalformedRow) as err:
        read_csv_stream(_write(tmp_path, "time,type\n1,\n"))
    assert err.value.row_number == 2


@pytest.mark.parametrize(
    "text, expected",
    [
        ("", []),  # no header: no events
        ("time,type,v\n1,A,2\n\n2,A,3\n", [(1000, "A", {"v": 2}), (2000, "A", {"v": 3})]),
        ("time,type\n1,A,v=2\n\n", [(1000, "A", {"v": 2})]),  # blank rows skip
        ("time,type\n1\n", "row 2: need at least time and type"),
        ("time,type\n1,A, ,v=2\n", [(1000, "A", {"v": 2})]),  # a blank cell skips
        ("time,type\n1,A,v\n", "row 2: expected key=value, got 'v'"),
    ],
    ids=["empty", "blank-typed", "blank-kv", "kv-one-cell", "kv-blank-cell", "kv-no-equals"],
)
def test_read_edge_rows(tmp_path, text, expected):
    """Rows at the edges of both layouts; pins today's behaviour."""
    path = _write(tmp_path, text)
    if isinstance(expected, str):
        with pytest.raises(MalformedRow, match=f"^{expected}$"):
            read_csv_stream(path)
        return
    assert [(e.time, e.etype, e.attrs) for e in read_csv_stream(path)] == expected


def test_read_rejects_out_of_order(tmp_path):
    with pytest.raises(OutOfOrder) as err:
        read_csv_stream(_write(tmp_path, "time,type\n2,A\n1,B\n"))
    assert err.value.row_number == 3


def test_read_rejects_a_field_over_the_csv_size_limit(tmp_path):
    path = _write(tmp_path, "time,type,v\n1,A,3\n2,A," + "x" * 200_000 + "\n")
    with pytest.raises(MalformedRow, match=r"^row 3: field larger than field limit"):
        read_csv_stream(path)


def test_read_numbers_records_not_lines_after_a_multi_line_cell(tmp_path):
    # Record 2's quoted cell spans two lines, so record 5 starts on line 6;
    # a csv.Error and a backwards time in record 5 both name row 5.
    head = 'time,type,note\n1,A,"two\nlines"\n2,A,x\n3,A,y\n'
    oversized = _write(tmp_path, head + "4,A," + "x" * 200_000 + "\n")
    with pytest.raises(MalformedRow, match=r"^row 5: field larger than field limit"):
        read_csv_stream(oversized)
    with pytest.raises(OutOfOrder, match=r"^row 5: time went backwards"):
        read_csv_stream(_write(tmp_path, head + "1,A,z\n"))


def _long_stream(tmp_path, rows, name="long.csv", bad=None):
    """A ``time,type,v`` file of ``rows`` rows, header included, one event
    per second; ``bad`` maps a row number to the text of that row."""
    bad = bad or {}
    lines = ["time,type,v"] + [
        bad.get(n, f"{n}.250,A,{n}") for n in range(2, rows + 1)
    ]
    path = tmp_path / name
    path.write_bytes("\n".join(lines).encode("utf-8", "surrogateescape") + b"\n")
    return path


_V_INT = Schema({"A": {"v": "int"}})


class TestLazyRead:
    """Rows after the first ``BLOCK_ROWS`` are parsed when iteration reaches
    them, so their errors raise from the iterator, not from the call."""

    def test_a_malformed_cell_after_the_first_block_raises_on_iteration(self, tmp_path):
        assert BLOCK_ROWS < 5001
        path = _long_stream(tmp_path, 6000, bad={5002: "5002,A,notint"})
        events = read_csv_stream(path, schema=_V_INT)
        with pytest.raises(MalformedRow) as err:
            for _ in events:
                pass
        assert str(err.value) == "row 5002: value 'notint' for v is not a valid int"
        assert err.value.row_number == 5002

    def test_a_backwards_row_after_the_first_block_raises_on_iteration(self, tmp_path):
        path = _long_stream(tmp_path, 6000, bad={5500: "1,A,0"})
        events = read_csv_stream(path)
        with pytest.raises(OutOfOrder) as err:
            list(events)
        assert str(err.value) == "row 5500: time went backwards (1000 ms after 5499250 ms)"
        assert err.value.row_number == 5500

    def test_bad_utf8_after_the_first_block_raises_on_iteration(self, tmp_path):
        path = _long_stream(tmp_path, 6000, bad={5900: "5900,A,caf\udce9"})
        events = read_csv_stream(path)
        with pytest.raises(InputError, match="not UTF-8 text"):
            list(events)

    def test_the_blocks_join_into_one_stream(self, tmp_path):
        rows = 2 * BLOCK_ROWS + 3
        events = list(read_csv_stream(_long_stream(tmp_path, rows)))
        assert [e.time for e in events] == [n * 1000 + 250 for n in range(2, rows + 1)]
        assert [e.attrs for e in events] == [{"v": n} for n in range(2, rows + 1)]

    def test_read_memory_does_not_grow_with_the_stream(self, tmp_path):
        # The consumer keeps no event, so the peak is a block or two
        # whatever the stream's length; an eager read holds every event.
        peaks = {}
        for blocks in (2, 8):
            path = _long_stream(tmp_path, blocks * BLOCK_ROWS + 1, f"{blocks}.csv")
            tracemalloc.start()
            try:
                for _ in read_csv_stream(path):
                    pass
                peaks[blocks] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[8] < 1.5 * peaks[2], peaks


def test_read_events_are_ordinary_events(tmp_path):
    path = _write(tmp_path, "time,type,v,name\n0,A,1,x\n1.5,B,,y\n")
    got = list(read_csv_stream(path))
    want = [Event(0, "A", {"v": 1, "name": "x"}), Event(1500, "B", {"name": "y"})]
    assert got == want
    assert [type(e) for e in got] == [Event, Event]
    assert [repr(e) for e in got] == [repr(e) for e in want]
    with pytest.raises(dataclasses.FrozenInstanceError):
        got[0].time = 5
    with pytest.raises(dataclasses.FrozenInstanceError):
        got[0].etype = "B"


def test_csv_roundtrip(tmp_path):
    events = [
        Event(0, "A", {"v": 1, "w": 2.5}),
        Event(1500, "B", {"name": "x"}),
        Event(1500, "A", {"v": -3}),
    ]
    path = tmp_path / "out.csv"
    write_csv_stream(events, path)
    again = list(read_csv_stream(path))
    assert again == events


_ROUND_TRIP_SCHEMA = Schema(
    {"A": {"i": "int", "f": "float", "s": "str"}, "B": {"i": "float", "f": "str", "s": "int"}}
)
_KIND_VALUES = {
    "int": st.integers(min_value=-(2**64), max_value=2**64),
    "float": st.floats(allow_nan=False)
    | st.sampled_from([1e308, -1e308, 5e-324, -5e-324, -0.0, 0.0]),
    "str": st.text(st.characters(blacklist_categories=("Cs",)), min_size=1).filter(
        lambda s: s == s.strip()
    ),
}


@st.composite
def _typed_events(draw):
    events, time = [], 0
    for _ in range(draw(st.integers(0, 8))):
        time += draw(st.integers(0, 5000))
        etype = draw(st.sampled_from("AB"))
        attrs = {}
        for attr, kind in _ROUND_TRIP_SCHEMA.types[etype].items():
            if draw(st.booleans()):  # otherwise absent: an empty cell
                attrs[attr] = draw(_KIND_VALUES[kind])
        events.append(Event(time, etype, attrs))
    return events


@settings(max_examples=200, deadline=None)
@given(events=_typed_events())
def test_written_cells_read_back_by_their_kind(tmp_path_factory, events):
    path = tmp_path_factory.mktemp("round") / "stream.csv"
    write_csv_stream(events, path)
    got = list(read_csv_stream(path, schema=_ROUND_TRIP_SCHEMA))
    assert got == events
    # repr tells 5 from 5.0 and '5', and -0.0 from 0.0.
    assert [{a: repr(v) for a, v in e.attrs.items()} for e in got] == [
        {a: repr(v) for a, v in e.attrs.items()} for e in events
    ]


def test_infer_schema_widens_kinds():
    schema = infer_schema(
        [
            Event(0, "A", {"v": 1}),
            Event(1, "A", {"v": 2.5}),
            Event(2, "B", {"v": "x"}),
        ]
    )
    assert schema.kind_of("A", "v") == "float"
    assert schema.kind_of("B", "v") == "str"


def test_generator_is_deterministic_and_valid():
    a = list(generate_transport_stream(5, 3, 300, seed=42))
    b = list(generate_transport_stream(5, 3, 300, seed=42))
    assert a == b
    assert list(generate_transport_stream(5, 3, 300, seed=43)) != a
    # 300 s -> 10 trips per passenger
    assert len(a) == 50
    last = -1
    for ev in a:
        assert ev.etype == "Trip"
        assert ev.time >= last
        last = ev.time
        assert 0 <= ev.attrs["passenger"] < 5
        assert 0 <= ev.attrs["station"] < 3
        assert 0.0 <= ev.attrs["wait"] <= 30.0
        assert TRANSPORT_SCHEMA.kind_of("Trip", "wait") == "float"
    with pytest.raises(ValueError):
        generate_transport_stream(0, 3, 300, seed=1)


def _fraction_time_ms(cell):
    """Reference: every time cell parsed as an exact Fraction of seconds."""
    try:
        seconds = Fraction(cell)
    except (ValueError, ZeroDivisionError):
        return f"row 7: bad time value {cell!r}"
    ms = seconds * 1000
    if ms.denominator != 1:
        return f"row 7: time {cell!r} is not a whole millisecond"
    if ms < 0:
        return f"row 7: negative time {cell!r}"
    return int(ms)


# Arabic-Indic, Devanagari and fullwidth decimal digits, and a superscript
# two, which is a digit to str.isdigit but not to Fraction.
_DIGIT = st.sampled_from("0123456789" * 4 + "\u0663\u0967\uff12\u00b2")
_DIGITS = st.text(alphabet=_DIGIT, min_size=0, max_size=7)


@st.composite
def _time_cells(draw):
    whole = draw(_DIGITS)
    kind = draw(
        st.sampled_from(
            ("int", "decimal", "decimal", "millis", "millis", "ratio", "garbage")
        )
    )
    if kind == "decimal":
        cell = f"{whole}.{draw(_DIGITS)}{'0' * draw(st.integers(0, 3))}"
    elif kind == "millis":  # exactly three fraction digits; `.123` when `whole` is empty
        cell = f"{whole}.{draw(st.text(alphabet=_DIGIT, min_size=3, max_size=3))}"
    elif kind == "ratio":
        cell = f"{whole}/{draw(_DIGITS)}"
    elif kind == "garbage":
        cell = draw(st.text(alphabet="0123456789.eE+-_/ x", max_size=8))
    else:
        cell = whole
    if draw(st.booleans()):
        cell += draw(st.sampled_from(("e3", "E-2", "e+1", "e")))
    return (
        draw(st.sampled_from(("", "", "+", "-", " ")))
        + cell
        + draw(st.sampled_from(("", "", " ", "\t")))
    )


@settings(max_examples=400, deadline=None)
@given(cell=_time_cells())
# Each guard of the reader's three-digit fast path, pinned: a missing whole
# part, a sign, padding, non-ASCII digits, a fraction that is not all
# digits, and more digits than int() reads.
@example(cell=".123")
@example(cell="-1.234")
@example(cell="+1.234")
@example(cell=" 1.234")
@example(cell="\u0661.234")
@example(cell="\u00b2.234")
@example(cell="1.2e3")
@example(cell="9" * 5000 + ".000")
@example(cell="9" * 5000)
def test_time_parsing_agrees_with_fractions(tmp_path_factory, cell):
    """``_parse_time_ms``, and a reader's row, whose ``digits.ddd`` times
    take an inline path, read a time cell as an exact Fraction would. A
    reader strips the cell first, so its errors name the stripped cell."""
    path = tmp_path_factory.getbasetemp() / "time.csv"
    # The header, then five blank rows: the cell's row is row 7.
    path.write_text("time,type\n" + "\n" * 5 + f"{cell},A\n", encoding="utf-8")
    for parse, read in (
        (lambda: _parse_time_ms(cell, 7), cell),
        (lambda: next(read_csv_stream(path)).time, cell.strip()),
    ):
        want = _fraction_time_ms(read)
        try:
            got = parse()
        except MalformedRow as exc:
            got = str(exc)
        assert got == want
        assert type(got) is type(want)


def test_time_parsing_examples():
    assert _parse_time_ms("12", 2) == 12000
    assert _parse_time_ms("0.5", 2) == 500
    assert _parse_time_ms("1.250000", 2) == 1250
    assert _parse_time_ms("3.007", 2) == 3007
    assert _parse_time_ms("1.5e3", 2) == 1_500_000
    assert _parse_time_ms("7/8", 2) == 875
    assert _parse_time_ms(".123", 2) == 123
    assert _parse_time_ms("0.000", 2) == 0
    assert _parse_time_ms("007.010", 2) == 7010
    assert _parse_time_ms("\u0661.234", 2) == 1234  # an Arabic-Indic one
    with pytest.raises(MalformedRow, match="not a whole millisecond"):
        _parse_time_ms("1.0005", 2)
    with pytest.raises(MalformedRow, match="negative time"):
        _parse_time_ms("-1", 2)


_READ_SCHEMA = Schema(
    {
        "A": {"u": "int", "w": "float", "s": "str"},
        "B": {"u": "float", "w": "str", "s": "int"},
    }
)
_READ_CELLS = (
    "", " ", "  \t", "3", " -4 ", "2.5", "1e3", "-0.0", "x", "007", "inf", "nan", "1_0",
)
# Rarer cells: a quoted comma, and integers past int()'s 4,300-digit limit.
_RARE_CELLS = ('a,"b', "9" * 4301, "-" + "1" * 4301)
# Header names that generated source would choke on if one were spliced in
# without repr(): quotes, backslashes, braces, non-ASCII letters, Python
# keywords and the decoder's own names.
_NAMES = st.one_of(
    st.sampled_from(
        ("u", "w", "if", "class", "None", "attrs", "cell", "row", "row_number",
         "int", "_infer", "bad_value", "a}{'\"\\", "é", "名前")
    ),
    st.text(alphabet="ab'\"\\{}é中 _", min_size=1, max_size=4).map(str.strip).filter(bool),
)
_TYPES = ("A", "B", "C", " A ", "D")  # D is never in the schema


@st.composite
def _typed_streams(draw):
    """``(schema, rows)``: a typed-column CSV as lists of cells, header
    first, and a schema over two or three types whose kinds differ per
    column, or ``None``. Mostly good rows, with blank rows and every kind
    of bad row drawn among them."""
    names = draw(st.lists(_NAMES, min_size=1, max_size=4, unique=True))
    schema = None
    if draw(st.booleans()):
        kinds = st.sampled_from(("int", "float", "str", None))
        schema = Schema(
            {
                etype: {n: k for n in names if (k := draw(kinds))}
                for etype in draw(st.sampled_from((("A", "B"), ("A", "B", "C"))))
            }
        )
    rows = [["time", "type", *(draw(st.sampled_from(("", " "))) + n for n in names)]]
    ms = 0
    for _ in range(draw(st.integers(0, 12))):
        shape = draw(
            st.sampled_from(
                ("row",) * 24 + ("blank", "short", "long", "backwards", "bad time", "no type")
            )
        )
        if shape == "blank":
            rows.append([])
            continue
        if shape == "backwards" and ms:
            ms -= draw(st.integers(1, ms))
        else:
            ms += draw(st.integers(0, 1500))
        time = draw(st.sampled_from((f"{ms // 1000}.{ms % 1000:03d}", f" {ms / 1000} ")))
        if shape == "bad time":
            time = draw(st.sampled_from(("x", "1.0005", "-1", "", "9" * 5000 + ".000")))
        etype = " " if shape == "no type" else draw(st.sampled_from(_TYPES))
        cell = st.sampled_from(_READ_CELLS * 4 + _RARE_CELLS)
        cells = draw(st.lists(cell, min_size=len(names), max_size=len(names)))
        if shape == "short":
            cells.pop()
        elif shape == "long":
            cells.append("1")
        rows.append([time, etype, *cells])
    return schema, rows


def _read_outcome(read):
    """The events ``read()`` returns, as reprs, which show each value's
    type, or the class and message of the error it raises."""
    try:
        return [(type(e), repr(e)) for e in read()]
    except (MalformedRow, OutOfOrder) as exc:
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(stream=_typed_streams())
@example(stream=(_READ_SCHEMA, [["time", "type", "u", "w", "s"], ["1", "A", "2.5", "", ""]]))
def test_column_decoders_agree_with_coerce(tmp_path_factory, stream):
    """The reader's generated per-type decoders equal the cell-by-cell loop
    of ``reader_reference``: the same events with the same value types, or
    the same error. Blocks of two events put most errors past the first."""
    schema, rows = stream
    path = tmp_path_factory.getbasetemp() / "typed.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)
    want = _read_outcome(lambda: read_typed_csv(path, schema))
    with mock.patch.object(events_module, "BLOCK_ROWS", 2):
        assert _read_outcome(lambda: list(read_csv_stream(path, schema))) == want


def test_a_decoder_is_built_once_per_type_and_stream(tmp_path, monkeypatch):
    built = []

    def counted(columns, kinds):
        built.append(kinds)
        return compile_decoder(columns, kinds)

    compile_decoder = events_module._compile_decoder
    monkeypatch.setattr(events_module, "_compile_decoder", counted)
    monkeypatch.setattr(events_module, "BLOCK_ROWS", 3)
    path = _write(tmp_path, "time,type,u,w\n" + "".join(f"{n},{'AB'[n % 2]},{n},1\n" for n in range(10)))
    for reads in (1, 2):
        events = list(read_csv_stream(path, schema=_READ_SCHEMA))
        assert [e.attrs for e in events[:2]] == [{"u": 0, "w": 1.0}, {"u": 1.0, "w": "1"}]
        assert built == [["int", "float"], ["float", "str"]] * reads


def test_column_decoder_errors_name_the_cell(tmp_path):
    path = _write(tmp_path, "time,type,u,w\n1,A,1,2\n2,A,3,x\n")
    with pytest.raises(MalformedRow, match="row 3: value 'x' for w is not a valid float"):
        read_csv_stream(path, schema=_READ_SCHEMA)
    path = _write(tmp_path, "time,type,u,w\n1,B,1,2\n2,A,2.5,x\n")
    with pytest.raises(MalformedRow, match="row 3: value '2.5' for u is not a valid int"):
        read_csv_stream(path, schema=_READ_SCHEMA)
    # A key=value cell is decoded, and named, like a typed one.
    path = _write(tmp_path, "time,type\n1,A,u=1\n2,A,u=3, w = x \n")
    with pytest.raises(MalformedRow, match="row 3: value 'x' for w is not a valid float"):
        read_csv_stream(path, schema=_READ_SCHEMA)
