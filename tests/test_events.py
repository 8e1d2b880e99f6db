from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trendagg import (
    Event,
    MalformedRow,
    OutOfOrder,
    Schema,
    StreamSource,
    TRANSPORT_SCHEMA,
    generate_transport_stream,
    infer_schema,
    read_csv_stream,
    write_csv_stream,
)
from trendagg.events import _parse_time_ms


def test_event_validation():
    ev = Event(1500, "A", {"v": 3})
    assert ev.time == 1500 and ev.etype == "A" and ev.attr("v") == 3
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


def test_stream_source_order_check():
    good = StreamSource([Event(1, "A"), Event(1, "A"), Event(2, "B")])
    assert [e.time for e in good] == [1, 1, 2]
    bad = StreamSource([Event(5, "A"), Event(3, "A")])
    with pytest.raises(OutOfOrder):
        list(bad)


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
        "2,C\n",
    )
    events = list(read_csv_stream(path))
    assert events[0].attrs == {"v": 1}
    assert events[1].attrs == {"v": 2, "name": "hi"}
    assert events[2].attrs == {}


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


def test_read_rejects_out_of_order(tmp_path):
    with pytest.raises(OutOfOrder) as err:
        read_csv_stream(_write(tmp_path, "time,type\n2,A\n1,B\n"))
    assert err.value.row_number == 3


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


_DIGITS = st.text(
    # Arabic-Indic, Devanagari and fullwidth decimal digits, and a
    # superscript two, which is a digit to str.isdigit but not to Fraction.
    alphabet=st.sampled_from("0123456789" * 4 + "\u0663\u0967\uff12\u00b2"),
    min_size=0,
    max_size=7,
)


@st.composite
def _time_cells(draw):
    whole = draw(_DIGITS)
    kind = draw(st.sampled_from(("int", "decimal", "decimal", "ratio", "garbage")))
    if kind == "decimal":
        cell = f"{whole}.{draw(_DIGITS)}{'0' * draw(st.integers(0, 3))}"
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
def test_time_parsing_agrees_with_fractions(cell):
    want = _fraction_time_ms(cell)
    try:
        got = _parse_time_ms(cell, 7)
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
    with pytest.raises(MalformedRow, match="not a whole millisecond"):
        _parse_time_ms("1.0005", 2)
    with pytest.raises(MalformedRow, match="negative time"):
        _parse_time_ms("-1", 2)
