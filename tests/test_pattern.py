import pytest

from trendagg import (
    DuplicateTypeInPattern,
    Plus,
    QuerySyntaxError,
    Seq,
    TypeAtom,
    parse_pattern,
    parse_query,
)
from trendagg import pattern as pattern_module
from trendagg import query as query_module
from trendagg.kernels import compile_query
from trendagg.pattern import analyze_pattern

from conftest import ABC_SCHEMA


def template_of(text):
    return analyze_pattern(parse_pattern(text))[0]


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
    assert analyze_pattern(p)[1] == {"S": "Stock", "T": "Stock"}
    assert parse_pattern("Measurement M+") == Plus(TypeAtom("M", "Measurement"))


def test_trailing_whitespace_ends_the_pattern():
    assert parse_pattern("SEQ(A, B+)  \n") == Seq(TypeAtom("A", "A"), Plus(TypeAtom("B", "B")))


def test_parse_rejects_garbage():
    for text in ("", "SEQ(A)", "SEQ(A,)", "A B C", "(A", "A)", "SEQ A, B", "A %"):
        with pytest.raises(QuerySyntaxError):
            parse_pattern(text)


def test_variable_bound_twice_rejected():
    with pytest.raises(DuplicateTypeInPattern):
        parse_pattern("SEQ(A, A)")
    # ...but one stream type under two variables is fine
    parse_pattern("SEQ(Stock A, Stock B)")


def test_the_first_variable_bound_twice_is_named_by_parser_and_walk():
    # Pattern order is A, B, A, C, C: A repeats first, though C repeats
    # in the innermost SEQ.
    text = "SEQ(SEQ(A, B), SEQ(A, SEQ(C, C)))"
    with pytest.raises(DuplicateTypeInPattern, match="^pattern variable A bound twice$"):
        parse_pattern(text)
    a, b, c = (TypeAtom(v, v) for v in "ABC")
    built = Seq(Seq(a, b), Seq(a, Seq(c, c)))  # no parser checked this one
    with pytest.raises(DuplicateTypeInPattern, match="^pattern variable A bound twice$"):
        analyze_pattern(built)
    with pytest.raises(DuplicateTypeInPattern, match="^pattern variable C bound twice$"):
        analyze_pattern(Plus(Seq(c, Plus(c))))


def test_one_walk_gives_the_template_and_the_stream_types_in_pattern_order():
    template, sources = analyze_pattern(parse_pattern("(SEQ(Trip T+, Stop S, Trip U))+"))
    assert list(sources.items()) == [("T", "Trip"), ("S", "Stop"), ("U", "Trip")]
    assert list(template.pred_types) == ["T", "S", "U"]
    assert (template.start_type, template.end_type) == ("T", "U")
    assert template.pred_types == {
        "T": frozenset({"T", "U"}), "S": frozenset({"T"}), "U": frozenset({"S"})
    }


def test_parse_query_walks_the_pattern_once(monkeypatch):
    walks = []

    def counted(pattern):
        walks.append(pattern)
        return analyze_pattern(pattern)

    monkeypatch.setattr(pattern_module, "analyze_pattern", counted)
    monkeypatch.setattr(query_module, "analyze_pattern", counted)
    query = parse_query(
        "RETURN COUNT(*) PATTERN (SEQ(A+, B))+ SEMANTICS any "
        "WHERE A.v < B.v AND A.v < NEXT(A).v WITHIN 1 s",
        ABC_SCHEMA,
    )
    compile_query(query)  # plans from the template parse_query made
    assert walks == [query.pattern]


def test_str_roundtrip():
    for text in ("A+", "SEQ(A, B)", "(SEQ(A+, B))+", "Stock S+"):
        p = parse_pattern(text)
        assert parse_pattern(str(p)) == p


def test_template_single_plus():
    t = template_of("A+")
    assert t.start_type == "A" and t.end_type == "A"
    assert t.pred_types == {"A": frozenset({"A"})}


def test_template_seq():
    t = template_of("SEQ(A, B)")
    assert t.start_type == "A" and t.end_type == "B"
    assert t.pred_types == {"A": frozenset(), "B": frozenset({"A"})}


def test_template_kleene_of_seq():
    # The outer plus loops the end variable back to the start variable.
    t = template_of("(SEQ(A+, B))+")
    assert t.start_type == "A" and t.end_type == "B"
    assert t.pred_types == {
        "A": frozenset({"A", "B"}),
        "B": frozenset({"A"}),
    }


def test_template_three_variables():
    t = template_of("SEQ(A+, B, C+)")
    assert t.start_type == "A" and t.end_type == "C"
    assert t.pred_types == {
        "A": frozenset({"A"}),
        "B": frozenset({"A"}),
        "C": frozenset({"B", "C"}),
    }
    assert t.types == frozenset({"A", "B", "C"})


def test_template_nested_plus():
    t = template_of("(A+)+")
    assert t.pred_types == {"A": frozenset({"A"})}


def test_pattern_variables_in_order():
    assert list(analyze_pattern(parse_pattern("SEQ(B, A+, C)"))[1]) == ["B", "A", "C"]
