import pytest

from trendagg import (
    DuplicateTypeInPattern,
    Plus,
    QuerySyntaxError,
    Seq,
    TypeAtom,
    compile_template,
    parse_pattern,
)
from trendagg.pattern import alias_map, pattern_variables


def test_parse_atoms_and_operators():
    assert parse_pattern("A") == TypeAtom("A", "A")
    assert parse_pattern("A+") == Plus(TypeAtom("A", "A"))
    assert parse_pattern("SEQ(A, B)") == Seq(TypeAtom("A", "A"), TypeAtom("B", "B"))
    assert parse_pattern("(SEQ(A+, B))+") == Plus(
        Seq(Plus(TypeAtom("A", "A")), TypeAtom("B", "B"))
    )


def test_parse_nary_seq_folds_right():
    assert parse_pattern("SEQ(A, B, C)") == Seq(
        TypeAtom("A", "A"), Seq(TypeAtom("B", "B"), TypeAtom("C", "C"))
    )


def test_parse_alias_atoms():
    # Two identifiers in a row: stream type, then the variable reading it.
    p = parse_pattern("SEQ(Stock S+, Stock T+)")
    assert alias_map(p) == {"S": "Stock", "T": "Stock"}
    assert parse_pattern("Measurement M+") == Plus(TypeAtom("M", "Measurement"))


def test_parse_rejects_garbage():
    for text in ("", "SEQ(A)", "SEQ(A,)", "A B C", "(A", "A)", "SEQ A, B", "A %"):
        with pytest.raises(QuerySyntaxError):
            parse_pattern(text)


def test_variable_bound_twice_rejected():
    with pytest.raises(DuplicateTypeInPattern):
        parse_pattern("SEQ(A, A)")
    # ...but one stream type under two variables is fine
    parse_pattern("SEQ(Stock A, Stock B)")


def test_str_roundtrip():
    for text in ("A+", "SEQ(A, B)", "(SEQ(A+, B))+", "Stock S+"):
        p = parse_pattern(text)
        assert parse_pattern(str(p)) == p


def test_template_single_plus():
    t = compile_template(parse_pattern("A+"))
    assert t.start_type == "A" and t.end_type == "A"
    assert t.pred_types == {"A": frozenset({"A"})}


def test_template_seq():
    t = compile_template(parse_pattern("SEQ(A, B)"))
    assert t.start_type == "A" and t.end_type == "B"
    assert t.pred_types == {"A": frozenset(), "B": frozenset({"A"})}


def test_template_kleene_of_seq():
    # The outer plus loops the end variable back to the start variable.
    t = compile_template(parse_pattern("(SEQ(A+, B))+"))
    assert t.start_type == "A" and t.end_type == "B"
    assert t.pred_types == {
        "A": frozenset({"A", "B"}),
        "B": frozenset({"A"}),
    }


def test_template_three_variables():
    t = compile_template(parse_pattern("SEQ(A+, B, C+)"))
    assert t.start_type == "A" and t.end_type == "C"
    assert t.pred_types == {
        "A": frozenset({"A"}),
        "B": frozenset({"A"}),
        "C": frozenset({"B", "C"}),
    }
    assert t.types == frozenset({"A", "B", "C"})


def test_template_nested_plus():
    t = compile_template(parse_pattern("(A+)+"))
    assert t.pred_types == {"A": frozenset({"A"})}


def test_pattern_variables_in_order():
    assert pattern_variables(parse_pattern("SEQ(B, A+, C)")) == ["B", "A", "C"]
