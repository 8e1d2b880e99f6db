"""End-to-end command line behaviour (in-process, via main(argv))."""

import argparse
import os
import re
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

import pytest

from trendagg.cli import build_parser, main
from trendagg.events import write_csv_stream

from conftest import ABC_SCHEMA, SHOWCASE

QUERY_TEXT = "RETURN COUNT(*) PATTERN (SEQ(A+, B))+ SEMANTICS any WITHIN 100 s\n"


@pytest.fixture
def workdir(tmp_path):
    write_csv_stream(SHOWCASE, tmp_path / "stream.csv")
    (tmp_path / "q.txt").write_text(QUERY_TEXT)
    ABC_SCHEMA.to_json(tmp_path / "schema.json")
    return tmp_path


@pytest.fixture
def int_digit_limit():
    """CPython's default limit on the digits int() reads and str() writes,
    4,300, whatever the environment set."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(old)


def _run(args):
    return main([str(a) for a in args])


class TestRun:
    def test_showcase_counts(self, workdir, capsys):
        # Type-grained under every semantics, one cell per variable with
        # readable trends. any: cells for A and B. next: an event consumes
        # the cell it reads, so one cell is held at a time. cont: only the
        # cell the last timestamp passed on.
        for semantics, expected, peak in (
            ("any", 43, 2), ("next", 8, 1), ("cont", 2, 1)
        ):
            query = workdir / f"q_{semantics}.txt"
            query.write_text(QUERY_TEXT.replace("SEMANTICS any", f"SEMANTICS {semantics}"))
            out = workdir / f"out_{semantics}.csv"
            code = _run(
                ["run", "--query", query, "--input", workdir / "stream.csv",
                 "--schema", workdir / "schema.json", "--output", out]
            )
            assert code == 0
            lines = out.read_text().strip().splitlines()
            assert lines[0] == "wid,window_start_ms,window_end_ms,COUNT(*)"
            assert lines[1] == f"0,0,100000,{expected}"
            assert capsys.readouterr().err == (
                f"8 events -> 1 rows, peak state {peak} entries\n"
            )

    def test_stdout_default(self, workdir, capsys):
        code = _run(
            ["run", "--query", workdir / "q.txt", "--input", workdir / "stream.csv"]
        )
        assert code == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out == ["wid,window_start_ms,window_end_ms,COUNT(*)", "0,0,100000,43"]

    @pytest.mark.parametrize("flag", ["--input", "--schema", "--query"])
    def test_a_byte_order_mark_is_skipped(self, workdir, capsys, flag):
        files = {
            "--query": workdir / "q.txt",
            "--input": workdir / "stream.csv",
            "--schema": workdir / "schema.json",
        }
        assert _run(["run", *[a for item in files.items() for a in item]]) == 0
        plain = capsys.readouterr()
        original = files[flag]
        marked = files[flag] = workdir / f"bom{original.suffix}"
        marked.write_bytes(b"\xef\xbb\xbf" + original.read_bytes())
        assert _run(["run", *[a for item in files.items() for a in item]]) == 0
        assert capsys.readouterr() == plain

    def test_schema_inference_matches_explicit(self, workdir, capsys):
        for extra in ([], ["--schema", workdir / "schema.json"]):
            assert _run(
                ["run", "--query", workdir / "q.txt",
                 "--input", workdir / "stream.csv", *extra]
            ) == 0
        first, second = [
            block for block in capsys.readouterr().out.split(
                "wid,window_start_ms,window_end_ms,COUNT(*)"
            ) if block.strip()
        ]
        assert first == second

    def test_empty_input(self, workdir, capsys):
        empty = workdir / "empty.csv"
        write_csv_stream([], empty)
        code = _run(
            ["run", "--query", workdir / "q.txt", "--input", empty,
             "--schema", workdir / "schema.json"]
        )
        assert code == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out == ["wid,window_start_ms,window_end_ms,COUNT(*)"]

    def test_key_value_cells_are_stripped(self, workdir, capsys):
        # `v = 5` is A.v = 5, so both events pass A.v > 3: three trends.
        (workdir / "kv.csv").write_text("time,type\n1,A,v = 5\n2,A,v=4\n")
        (workdir / "kv.txt").write_text(
            "RETURN COUNT(*) PATTERN A+ SEMANTICS any WHERE A.v > 3 WITHIN 100 s\n"
        )
        for schema in ([], ["--schema", workdir / "schema.json"]):
            assert _run(
                ["run", "--query", workdir / "kv.txt", "--input", workdir / "kv.csv",
                 *schema]
            ) == 0
            assert capsys.readouterr().out.splitlines() == [
                "wid,window_start_ms,window_end_ms,COUNT(*)", "0,0,100000,3"
            ]

    def test_repeat_runs_byte_identical(self, workdir):
        blobs = []
        for i in range(2):
            out = workdir / f"rep{i}.csv"
            assert _run(
                ["run", "--query", workdir / "q.txt", "--input",
                 workdir / "stream.csv", "--output", out]
            ) == 0
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]


class TestInferredSchema:
    """Without ``--schema``, every cell is decoded by its column's inferred
    kind: the output is that of a run given the inferred schema."""

    @pytest.mark.parametrize(
        "cells, query, kind, out, err",
        [
            # A str column with one numeric cell: compared as strings.
            (["abc", "5"], "RETURN COUNT(*) PATTERN A+ SEMANTICS any "
             "WHERE A.v < NEXT(A).v WITHIN 100 s", "str",
             ["wid,window_start_ms,window_end_ms,COUNT(*)", "0,0,100000,2"],
             "2 events -> 1 rows, peak state 2 entries\n"),
            # An int cell in a float column sums as a float.
            (["1", "2.5"], "RETURN SUM(A.v) PATTERN A+ SEMANTICS any WITHIN 1 s",
             "float", ["wid,window_start_ms,window_end_ms,SUM(A.v)",
                       "1,1000,2000,1.0", "2,2000,3000,2.5"],
             "2 events -> 2 rows, peak state 1 entries\n"),
            # 1,100 rising ints, then two floats: about 2^1100 trends weight
            # every value, and a float sum of them overflows.
            ([*map(str, range(1, 1101)), "-1.5", "10000000"],
             "RETURN COUNT(*), SUM(A.v) PATTERN A+ SEMANTICS any "
             "WHERE A.v < NEXT(A).v WITHIN 10000 s", "float", [],
             "error: the sum of A.v exceeds the float range: "
             "int too large to convert to float\n"),
            # An integer cell past int()'s 4,300-digit limit is malformed,
            # whether its kind is declared or inferred.
            (["1", "9" * 5000], "RETURN SUM(A.v) PATTERN A+ SEMANTICS any WITHIN 10 s",
             "int", [], f"error: row 3: value {'9' * 5000!r} for v is not a valid int\n"),
        ],
        ids=["str-column", "int-in-float-column", "float-sum-overflow", "int-past-digit-limit"],
    )
    def test_cells_decode_by_the_inferred_kind(
        self, workdir, capsys, cells, query, kind, out, err
    ):
        (workdir / "in.csv").write_text(
            "time,type,v\n" + "".join(f"{t},A,{v}\n" for t, v in enumerate(cells, 1))
        )
        (workdir / "in.txt").write_text(query + "\n")
        (workdir / "in.json").write_text(f'{{"A": {{"v": "{kind}"}}}}')
        for schema in ([], ["--schema", workdir / "in.json"]):
            code = _run(
                ["run", "--query", workdir / "in.txt", "--input", workdir / "in.csv",
                 *schema]
            )
            captured = capsys.readouterr()
            assert (code, captured.err) == (2 if err.startswith("error") else 0, err)
            assert captured.out.splitlines() == out

    def test_a_pipe_is_read_through_a_temporary_copy(
        self, workdir, capsys, monkeypatch
    ):
        spool = workdir / "spool"
        spool.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(spool))
        fifo = workdir / "stream.fifo"
        os.mkfifo(fifo)
        data = (workdir / "stream.csv").read_bytes()

        def feed():
            with open(fifo, "wb") as fh:
                fh.write(data)

        writer = threading.Thread(target=feed)
        writer.start()
        try:
            code = _run(["run", "--query", workdir / "q.txt", "--input", fifo])
        finally:
            writer.join(timeout=10)
        piped = capsys.readouterr()
        assert code == 0
        assert list(spool.iterdir()) == []  # the copy is gone
        assert _run(
            ["run", "--query", workdir / "q.txt", "--input", workdir / "stream.csv"]
        ) == 0
        assert capsys.readouterr() == piped

class TestOracle:
    def test_agrees_with_run(self, workdir, capsys):
        for sub in ("run", "oracle"):
            assert _run(
                [sub, "--query", workdir / "q.txt",
                 "--input", workdir / "stream.csv"]
            ) == 0
        captured = capsys.readouterr()
        blocks = captured.out.split("wid,window_start_ms,window_end_ms,COUNT(*)")
        assert blocks[1] == blocks[2]
        assert "(oracle)" in captured.err

    @pytest.mark.parametrize(
        "returns, rows, extra, row",
        [
            # inf * 0 is nan: the first B extends no trend.
            ("COUNT(*), SUM(B.v)", "1,B,inf\n2,A,1\n3,B,2\n", [], "0,0,100000,1,2.0"),
            # The first B lacks v, but no trend holds it.
            ("COUNT(*), SUM(B.v)", "1,B,\n2,A,1\n3,B,2\n", [], "0,0,100000,1,2.0"),
            # 1.5 * 0 is 0.0, not the integer 0 of an empty sum.
            ("COUNT(*), SUM(B.v), AVG(B.v), MIN(B.v)", "1,B,1.5\n",
             ["--emit-empty"], "0,0,100000,0,0,,"),
        ],
        ids=["inf", "absent", "empty"],
    )
    def test_an_event_on_no_trends_changes_no_aggregate(
        self, workdir, capsys, returns, rows, extra, row
    ):
        (workdir / "ab.json").write_text('{"A": {"v": "float"}, "B": {"v": "float"}}')
        (workdir / "ab.csv").write_text("time,type,v\n" + rows)
        (workdir / "ab.txt").write_text(
            f"RETURN {returns} PATTERN SEQ(A, B) SEMANTICS any WITHIN 100 s\n"
        )
        outcomes = []
        for command in ("run", "oracle"):
            code = _run(
                [command, "--query", workdir / "ab.txt", "--input", workdir / "ab.csv",
                 "--schema", workdir / "ab.json", *extra]
            )
            captured = capsys.readouterr()
            # The summary line differs by design: only run reports its state.
            err = re.sub(r"(, peak state \d+ entries| \(oracle\))\n$", "\n", captured.err)
            outcomes.append((code, captured.out, err))
        assert outcomes[0] == outcomes[1]
        code, out, _ = outcomes[0]
        assert (code, out.splitlines()) == (
            0, [f"wid,window_start_ms,window_end_ms,{returns.replace(', ', ',')}", row]
        )

    @pytest.mark.parametrize("emit_empty", [[], ["--emit-empty"]])
    @pytest.mark.parametrize(
        "rows, out",
        [
            # a2 extends a1's chain as X and as Y, and the chain forks; a3
            # extends (a1, a2 as X) and (a2): the trends hold X.v 1 + 2,
            # 1 and 2.
            ("1,A,1\n2,A,2\n3,A,3\n", ["0,0,100000,3,6"]),
            # No A event: no event plays two variables, and no row.
            ("1,B,5\n2,C,3\n", []),
        ],
        ids=["forks", "no-a"],
    )
    def test_aliased_next_pattern_agrees_with_run(
        self, workdir, capsys, rows, out, emit_empty
    ):
        (workdir / "alias.csv").write_text("time,type,v\n" + rows)
        (workdir / "alias.txt").write_text(
            "RETURN COUNT(*), SUM(X.v) PATTERN SEQ(A X+, A Y) SEMANTICS next "
            "WITHIN 100 s\n"
        )
        outcomes = []
        for command in ("run", "oracle"):
            code = _run(
                [command, "--query", workdir / "alias.txt", "--input",
                 workdir / "alias.csv", "--schema", workdir / "schema.json",
                 *emit_empty]
            )
            outcomes.append((code, capsys.readouterr().out.splitlines()))
        header = "wid,window_start_ms,window_end_ms,COUNT(*),SUM(X.v)"
        assert outcomes == [(0, [header, *out])] * 2

    @pytest.mark.parametrize(
        "pattern, where, window, rows, out",
        [
            # The first B has no A before it; the second lacks v.
            ("SEQ(A, B+)", "B.v < NEXT(B).v", "WITHIN 100 s",
             "1,B,1\n2,B,\n3,A,1\n", ["0,0,100000,0"]),
            ("SEQ(A, B, C)", "B.v < C.v", "WITHIN 100 s", "1,B,1\n2,C,\n", ["0,0,100000,0"]),
            # B@6 s is on a trend in window 0 only, which closes at 10 s;
            # B@12 s lacks v.
            ("SEQ(A, B+)", "B.v < NEXT(B).v", "WITHIN 10 s SLIDE 5 s",
             "1,A,1\n6,B,1\n12,B,\n", ["0,0,10000,1", "1,5000,15000,0", "2,10000,20000,0"]),
            # B@6 s has no A before it; C@8 s would be checked against it.
            ("SEQ(A+, B, C+)", "B.v != C.v AND C.v < NEXT(C).v", "WITHIN 10 s",
             "6,B,\n8,C,4\n9,C,1\n", ["0,0,10000,0"]),
        ],
        ids=["kleene", "seq", "sliding", "kleene-end"],
    )
    @pytest.mark.parametrize("semantics", ["any", "next", "cont"])
    def test_a_stored_event_on_no_trend_is_never_checked(
        self, workdir, capsys, pattern, where, window, rows, out, semantics
    ):
        # Under every semantics, an event of a variable other than the start
        # that is on no trend in any open window is not kept, or no longer,
        # so no later event is checked against it, as in the oracle, which
        # checks only events that extend a trend.
        schema = '{"A": {"v": "float"}, "B": {"v": "float"}, "C": {"v": "float"}}'
        (workdir / "abc.json").write_text(schema)
        (workdir / "abc.csv").write_text("time,type,v\n" + rows)
        (workdir / "abc.txt").write_text(
            f"RETURN COUNT(*) PATTERN {pattern} SEMANTICS {semantics} "
            f"WHERE {where} {window}\n"
        )
        outcomes = []
        for command in ("run", "oracle"):
            code = _run(
                [command, "--query", workdir / "abc.txt", "--input", workdir / "abc.csv",
                 "--schema", workdir / "abc.json", "--emit-empty"]
            )
            captured = capsys.readouterr()
            err = re.sub(r"(, peak state \d+ entries| \(oracle\))\n$", "\n", captured.err)
            outcomes.append((code, captured.out, err))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][:2] == (0, "".join(
            f"{line}\r\n" for line in ["wid,window_start_ms,window_end_ms,COUNT(*)", *out]
        ))

    @pytest.mark.parametrize(
        "rows, window, out",
        [
            ("1,A,1\n2,A,nan\n3,A,2\n", "WITHIN 10 s", ["0,0,10000,7,nan,nan"]),
            ("1,A,nan\n2,A,inf\n3,A,1\n", "WITHIN 10 s", ["0,0,10000,7,nan,nan"]),
            ("1,A,1\n2,A,nan\n3,A,2\n", "WITHIN 2 s SLIDE 1 s",
             ["0,0,2000,1,1.0,1.0", "1,1000,3000,3,nan,nan",
              "2,2000,4000,3,nan,nan", "3,3000,5000,1,2.0,2.0"]),
            ("1,A,nan\n2,A,inf\n3,A,1\n", "WITHIN 2 s SLIDE 1 s",
             ["0,0,2000,1,nan,nan", "1,1000,3000,3,nan,nan",
              "2,2000,4000,3,1.0,inf", "3,3000,5000,1,1.0,1.0"]),
        ],
        ids=["middle-tumbling", "first-tumbling", "middle-sliding", "first-sliding"],
    )
    def test_min_and_max_read_nan_once_a_value_is_nan(
        self, workdir, capsys, rows, window, out
    ):
        # As a sum does: a nan compares false either way, so without a rule
        # of its own a min or max would keep it or drop it by arrival order.
        (workdir / "a.json").write_text('{"A": {"v": "float"}}')
        (workdir / "a.csv").write_text("time,type,v\n" + rows)
        (workdir / "a.txt").write_text(
            f"RETURN COUNT(*), MIN(A.v), MAX(A.v) PATTERN A+ SEMANTICS any {window}\n"
        )
        for command in ("run", "oracle"):
            code = _run(
                [command, "--query", workdir / "a.txt", "--input", workdir / "a.csv",
                 "--schema", workdir / "a.json"]
            )
            assert (code, capsys.readouterr().out.splitlines()) == (
                0, ["wid,window_start_ms,window_end_ms,COUNT(*),MIN(A.v),MAX(A.v)", *out]
            ), command

    @pytest.mark.parametrize("command", ["run", "oracle"])
    def test_a_quoted_constant_may_hold_and_or_a_clause_keyword(
        self, workdir, capsys, command
    ):
        (workdir / "s.json").write_text('{"A": {"v": "float", "s": "str"}}')
        (workdir / "s.csv").write_text(
            "time,type,v,s\n1,A,1.5,x AND y\n2,A,2.0,within\n3,A,4.0,x AND y\n"
        )
        (workdir / "s.txt").write_text(
            "RETURN COUNT(*), SUM(A.v) PATTERN A+ SEMANTICS any "
            "WHERE A.s = 'x AND y' AND A.s != 'within' WITHIN 100 s\n"
        )
        assert _run(
            [command, "--query", workdir / "s.txt", "--input", workdir / "s.csv",
             "--schema", workdir / "s.json"]
        ) == 0
        assert capsys.readouterr().out.splitlines() == [
            "wid,window_start_ms,window_end_ms,COUNT(*),SUM(A.v)",
            "0,0,100000,3,11.0",
        ]

    @pytest.mark.parametrize("semantics", ["any", "next", "cont"])
    def test_attributes_named_like_python_words_agree_with_run(
        self, workdir, capsys, semantics
    ):
        # Every name matches the grammar's identifiers; the generated cell
        # functions must quote them, not splice them into their source.
        rows = [(10, 3, 1.5, 2, 0.5), (20, 1, 2.5, 7, 1.5), (30, 4, 0.5, 1, 2.0),
                (40, 2, 3.5, 5, 1.0), (60, 5, 1.0, 3, 0.5), (80, 6, 2.0, 4, 3.5)]
        (workdir / "words.csv").write_text(
            "time,type,class,None,lambda,__import__\n"
            + "".join(f"{t},A,{c},{n},{lam},{imp}\n" for t, c, n, lam, imp in rows)
        )
        (workdir / "words.txt").write_text(
            "RETURN COUNT(*), SUM(A.class), MIN(A.None), MAX(A.lambda), "
            "AVG(A.__import__), SUM(A.None) PATTERN A+ SEMANTICS "
            f"{semantics} WHERE A.lambda > 1 AND A.class < NEXT(A).class "
            "WITHIN 100 s SLIDE 50 s\n"
        )
        outputs = []
        for sub in ("run", "oracle"):
            assert _run(
                [sub, "--query", workdir / "words.txt", "--input", workdir / "words.csv"]
            ) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        header, *lines = outputs[0].splitlines()
        assert header == (
            "wid,window_start_ms,window_end_ms,COUNT(*),SUM(A.class),MIN(A.None),"
            "MAX(A.lambda),AVG(A.__import__),SUM(A.None)"
        )
        assert lines

    @pytest.mark.parametrize("semantics", ["any", "next", "cont"])
    def test_variables_named_like_the_step_locals_agree_with_run(
        self, workdir, capsys, semantics
    ):
        # The generated kernel step has locals and parameters of these
        # names; it must quote variable names, not splice them in.
        rows = [(10, "A", 1), (20, "A", 3), (30, "A", 2), (40, "B", 2), (50, "C", 4),
                (60, "C", 5), (70, "D", 1), (80, "E", 6), (90, "A", 4), (100, "B", 1),
                (110, "C", 3), (120, "D", 2), (130, "E", 7)]
        (workdir / "locals.csv").write_text(
            "time,type,v\n" + "".join(f"{t},{e},{v}\n" for t, e, v in rows)
        )
        (workdir / "locals.txt").write_text(
            "RETURN COUNT(*), SUM(self.v), MIN(cell.v), MAX(r.v), AVG(attrs.v), "
            "COUNT(pred) PATTERN SEQ(A self+, B pred, C attrs+, D cell, E r) "
            f"SEMANTICS {semantics} WHERE self.v < NEXT(self).v AND attrs.v > 1 "
            "AND pred.v <= attrs.v WITHIN 100 s SLIDE 50 s\n"
        )
        outputs = []
        for sub in ("run", "oracle"):
            assert _run(
                [sub, "--query", workdir / "locals.txt", "--input", workdir / "locals.csv"]
            ) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert len(outputs[0].splitlines()) > 1

    def test_cap_enforced(self, workdir, capsys):
        # 12 A events under A+ produce 2^12 - 1 trends; a tiny cap trips.
        events = [
            type(SHOWCASE[0])(1000 * (i + 1), "A", {"v": i}) for i in range(12)
        ]
        write_csv_stream(events, workdir / "wide.csv")
        (workdir / "aplus.txt").write_text(
            "RETURN COUNT(*) PATTERN A+ SEMANTICS any WITHIN 100 s\n"
        )
        code = _run(
            ["oracle", "--query", workdir / "aplus.txt", "--input",
             workdir / "wide.csv", "--schema", workdir / "schema.json",
             "--oracle-cap", 100]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestBenchAndGen:
    def test_gen_deterministic_and_loadable(self, tmp_path, capsys):
        paths = [tmp_path / "s1.csv", tmp_path / "s2.csv"]
        for p in paths:
            assert _run(
                ["gen", "--output", p, "--passengers", 4, "--stations", 3,
                 "--duration", 300, "--seed", 42,
                 "--schema-out", tmp_path / "ts.json"]
            ) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()
        assert "wrote 40 events" in capsys.readouterr().err

        (tmp_path / "trips.txt").write_text(
            "RETURN COUNT(*) PATTERN Trip T+ SEMANTICS any "
            "GROUP-BY passenger WITHIN 300 s\n"
        )
        assert _run(
            ["run", "--query", tmp_path / "trips.txt", "--input", paths[0],
             "--schema", tmp_path / "ts.json"]
        ) == 0
        rows = capsys.readouterr().out.strip().splitlines()
        assert len(rows) == 1 + 4  # header + one row per passenger


class TestErrors:
    def test_bad_query_exits_2(self, workdir, capsys):
        (workdir / "bad.txt").write_text("RETURN COUNT(*) WITHIN 10 s\n")
        code = _run(
            ["run", "--query", workdir / "bad.txt",
             "--input", workdir / "stream.csv"]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "oracle"])
    def test_missing_group_attribute_exits_2(self, workdir, capsys, command):
        # The schema knows A.g, so only routing can find it missing.
        (workdir / "grouped.csv").write_text(
            "time,type,v,g\n1,A,5,\n2,A,1,1\n3,B,2,1\n"
        )
        (workdir / "grouped.txt").write_text(
            "RETURN COUNT(*) PATTERN (SEQ(A+, B))+ SEMANTICS any "
            "GROUP-BY g WITHIN 100 s\n"
        )
        code = _run(
            [command, "--query", workdir / "grouped.txt",
             "--input", workdir / "grouped.csv"]
        )
        assert code == 2
        assert capsys.readouterr().err == (
            "error: event at 1000ms lacks partition attribute 'g'\n"
        )

    @pytest.mark.parametrize("group_by", ["", "g", "g, h", "h, g"])
    @pytest.mark.parametrize("missing", ["", "g", "h", "g h"])
    def test_partition_key_in_run_and_oracle(self, workdir, capsys, group_by, missing):
        # The A event at 2 s lacks the ``missing`` attributes; with them in
        # GROUP-BY, both commands name the first one missing, in GROUP-BY
        # order, and exit 2; without, both write the same rows.
        cells = {a: "" if a in missing.split() else "1" for a in ("g", "h")}
        (workdir / "keys.csv").write_text(
            "time,type,v,g,h\n1,A,5,1,1\n"
            f"2,A,3,{cells['g']},{cells['h']}\n3,B,2,1,1\n"
        )
        (workdir / "keys.txt").write_text(
            "RETURN COUNT(*) PATTERN (SEQ(A+, B))+ SEMANTICS any "
            f"{'GROUP-BY ' + group_by if group_by else ''} WITHIN 100 s\n"
        )
        outcomes = []
        for command in ("run", "oracle"):
            code = _run(
                [command, "--query", workdir / "keys.txt",
                 "--input", workdir / "keys.csv"]
            )
            out, err = capsys.readouterr()
            outcomes.append((code, out, err if code else ""))
        assert outcomes[0] == outcomes[1]
        first = next((a for a in group_by.split(", ") if a in missing.split()), None)
        if first is None:
            assert outcomes[0][0] == 0 and outcomes[0][1]
        else:
            assert outcomes[0] == (
                2, "", f"error: event at 2000ms lacks partition attribute '{first}'\n"
            )

    @pytest.mark.parametrize("gap_key", ["", "1"])
    def test_a_contiguous_gap_without_its_key_is_dropped(
        self, workdir, capsys, gap_key
    ):
        # The C event matches nothing. With the key it severs the chain
        # from a1 to b3, and no trend is left; without, it is dropped.
        (workdir / "gap.csv").write_text(
            f"time,type,v,g\n1,A,5,1\n2,C,0,{gap_key}\n3,B,2,1\n"
        )
        (workdir / "gap.txt").write_text(
            "RETURN g, COUNT(*) PATTERN SEQ(A, B) SEMANTICS cont "
            "GROUP-BY g WITHIN 100 s\n"
        )
        rows = "wid,window_start_ms,window_end_ms,g,COUNT(*)\n"
        if not gap_key:
            rows += "0,0,100000,1,1\n"
        for command in ("run", "oracle"):
            code = _run(
                [command, "--query", workdir / "gap.txt",
                 "--input", workdir / "gap.csv"]
            )
            assert code == 0
            assert capsys.readouterr().out.replace("\r\n", "\n") == rows

    @pytest.mark.parametrize(
        "case",
        [
            "missing input",
            "missing query",
            "missing schema",
            "directory as input",
            "schema not JSON",
            "schema with an unknown kind",
            "schema not an object",
            "input not UTF-8",
            "query not UTF-8",
            "query with a repeated GROUP-BY attribute",
            "query with a repeated RETURN attribute",
            "gen without passengers",
            "gen without stations",
            "gen with a negative duration",
            "duplicate column",
            "repeated key=value attribute",
            "column without a name",
            "key=value attribute without a name",
            "field over the csv size limit",
        ],
    )
    def test_unusable_input_files_exit_2(self, workdir, capsys, case):
        (workdir / "notjson.json").write_text("{not json")
        (workdir / "double.json").write_text('{"A": {"v": "double"}}')
        (workdir / "list.json").write_text('["A"]')
        (workdir / "latin1.csv").write_bytes(b"time,type,v\n1,A,caf\xe9\n")
        (workdir / "latin1.txt").write_bytes(b"RETURN COUNT(*) -- caf\xe9\n")
        (workdir / "dupgroup.txt").write_text(
            "RETURN COUNT(*) PATTERN A+ SEMANTICS any GROUP-BY v, v WITHIN 1 s\n"
        )
        (workdir / "dupreturn.txt").write_text(
            "RETURN v, v, COUNT(*) PATTERN A+ SEMANTICS any GROUP-BY v WITHIN 1 s\n"
        )
        (workdir / "dupcol.csv").write_text("time,type,v,v\n1,A,5,6\n")
        (workdir / "dupkey.csv").write_text("time,type\n1,A,v=5\n2,B,v=3,v=4\n")
        (workdir / "nameless.csv").write_text("time,type,,v\n1,A,3,5\n")
        (workdir / "namelesskey.csv").write_text("time,type\n1,A,v=5\n2,B,=5\n")
        (workdir / "hugecell.csv").write_text("time,type,v\n1,A,5\n2,A," + "9" * 200_000 + "\n")
        files = {
            "--query": workdir / "q.txt",
            "--input": workdir / "stream.csv",
            "--schema": workdir / "schema.json",
        }

        def run(flag, path):
            return ["run", *[a for item in {**files, flag: path}.items() for a in item]]

        gen = ["gen", "--output", workdir / "gen.csv"]
        argv = {
            "missing input": run("--input", workdir / "absent.csv"),
            "missing query": run("--query", workdir / "absent.txt"),
            "missing schema": run("--schema", workdir / "absent.json"),
            "directory as input": run("--input", workdir),
            "schema not JSON": run("--schema", workdir / "notjson.json"),
            "schema with an unknown kind": run("--schema", workdir / "double.json"),
            "schema not an object": run("--schema", workdir / "list.json"),
            "input not UTF-8": run("--input", workdir / "latin1.csv"),
            "query not UTF-8": run("--query", workdir / "latin1.txt"),
            "query with a repeated GROUP-BY attribute": run(
                "--query", workdir / "dupgroup.txt"
            ),
            "query with a repeated RETURN attribute": run(
                "--query", workdir / "dupreturn.txt"
            ),
            "gen without passengers": [*gen, "--passengers", 0],
            "gen without stations": [*gen, "--stations", 0],
            "gen with a negative duration": [*gen, "--duration", -5],
            "duplicate column": run("--input", workdir / "dupcol.csv"),
            "repeated key=value attribute": run("--input", workdir / "dupkey.csv"),
            "column without a name": run("--input", workdir / "nameless.csv"),
            "key=value attribute without a name": run(
                "--input", workdir / "namelesskey.csv"
            ),
            "field over the csv size limit": run("--input", workdir / "hugecell.csv"),
        }[case]
        code = _run(argv)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and "Traceback" not in err
        if case == "query with a repeated GROUP-BY attribute":
            assert err == "error: duplicate GROUP-BY attribute 'v'\n"
        if case == "query with a repeated RETURN attribute":
            assert err == "error: duplicate RETURN attribute 'v'\n"
        if case == "duplicate column":
            assert err == "error: row 1: duplicate column 'v'\n"
        if case == "repeated key=value attribute":
            assert err == "error: row 3: repeated attribute 'v'\n"
        if case == "column without a name":
            assert err == "error: row 1: column 3 has no name\n"
        if case == "key=value attribute without a name":
            assert err == "error: row 3: no attribute name in '=5'\n"
        if case == "field over the csv size limit":
            assert err == "error: row 3: field larger than field limit (131072)\n"

    @pytest.mark.parametrize("command", ["run", "oracle"])
    def test_user_error_writes_no_output_file(self, workdir, capsys, command):
        # At 2 s the window [1 s, 2 s) closes with one row; the event at 3 s
        # then lacks the partition attribute.
        (workdir / "late.csv").write_text(
            "time,type,v,g\n1,A,5,1\n2,A,3,1\n3,A,1,\n"
        )
        (workdir / "late.txt").write_text(
            "RETURN COUNT(*) PATTERN A+ SEMANTICS any GROUP-BY g WITHIN 1 s\n"
        )
        kept = workdir / "kept.csv"
        kept.write_text("earlier rows\n")
        fresh = workdir / "fresh.csv"
        for out in (kept, fresh):
            code = _run(
                [command, "--query", workdir / "late.txt",
                 "--input", workdir / "late.csv", "--output", out]
            )
            assert code == 2
            assert capsys.readouterr().err == (
                "error: event at 3000ms lacks partition attribute 'g'\n"
            )
        assert kept.read_text() == "earlier rows\n"
        assert not fresh.exists()

    def test_malformed_row_after_the_first_block_writes_no_output_file(
        self, workdir, capsys
    ):
        # Row 5,002 is parsed only after the run has ingested the first
        # block; the error still exits 2 before any row is written.
        lines = ["time,type,v"] + [f"{n},A,{n}" for n in range(2, 6001)]
        lines[5001] = "5002,A,notint"
        (workdir / "long.csv").write_text("\n".join(lines) + "\n")
        out = workdir / "out.csv"
        code = _run(
            ["run", "--query", workdir / "q.txt", "--input", workdir / "long.csv",
             "--schema", workdir / "schema.json", "--output", out]
        )
        assert code == 2
        assert capsys.readouterr().err == (
            "error: row 5002: value 'notint' for v is not a valid int\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "oracle"])
    @pytest.mark.parametrize("time", ["9" * 5000, "9" * 5000 + ".000"], ids=["whole", "millis"])
    def test_a_time_past_the_int_digit_limit_exits_2(self, workdir, capsys, command, time):
        # int() reads at most 4,300 digits; such a time is a malformed row.
        (workdir / "big.csv").write_text(f"time,type,v\n{time},A,1\n")
        code = _run([command, "--query", workdir / "q.txt", "--input", workdir / "big.csv"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == f"error: row 2: bad time value {time!r}\n"

    @pytest.mark.parametrize("command", ["run", "oracle"])
    @pytest.mark.parametrize(
        "time, within, error",
        [
            # 4,299 digits of ms each: a window ends below their sum, which
            # has at most 4,300 digits, as many as str() writes.
            ("9" * 4296 + ".999", "9" * 4299 + " ms", None),
            ("0", "9" * 4296 + " s", None),
            ("9" * 4297 + ".999", "10 s", "row 2: time '{time}'"),
            ("9" * 4300, "10 s", "row 2: time '{time}'"),
            ("1e4400", "10 s", "row 2: time '{time}'"),
            ("1", "9" * 4300 + " ms", "duration '{within}'"),
            ("1", "9" * 4300 + " s", "duration '{within}'"),
            ("1", "9" * 5000 + " ms", "duration '{within}'"),
        ],
        ids=[
            "both-at-bound", "duration-s-at-bound", "time-millis", "time-whole",
            "time-exponent", "duration-ms", "duration-s", "duration-past-int",
        ],
    )
    def test_numbers_past_the_int_digit_limit_exit_2(
        self, workdir, capsys, int_digit_limit, command, time, within, error
    ):
        # Every window bound the writer formats must stay within str()'s
        # digit limit, so a time or duration of more than 4,299 digits in
        # ms is refused as it is read.
        (workdir / "big.csv").write_text(f"time,type,v\n{time},A,1\n")
        (workdir / "big.txt").write_text(
            f"RETURN COUNT(*) PATTERN A+ SEMANTICS any WITHIN {within}\n"
        )
        code = _run([command, "--query", workdir / "big.txt", "--input", workdir / "big.csv"])
        captured = capsys.readouterr()
        if error is None:
            assert code == 0, captured.err
            header, row = captured.out.splitlines()
            start = int(row.split(",")[1])
            assert row.split(",")[2] == str(start + int(within.split()[0]) * (
                1000 if within.endswith(" s") else 1
            ))
            return
        message = error.format(time=time, within=within)
        assert (code, captured.out) == (2, "")
        assert captured.err == f"error: {message} has more than 4299 digits in ms\n"

    @pytest.mark.parametrize("command", ["run", "oracle"])
    def test_without_a_digit_limit_any_time_is_read(self, workdir, capsys, command):
        (workdir / "big.csv").write_text("time,type,v\n1e4400,A,1\n")
        (workdir / "big.txt").write_text(
            f"RETURN COUNT(*) PATTERN A+ SEMANTICS any WITHIN {'9' * 5000} ms\n"
        )
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            code = _run([command, "--query", workdir / "big.txt", "--input", workdir / "big.csv"])
            # One tumbling window, [0, 10**5000 - 1) ms, holds 10**4403 ms.
            expected = f"0,0,{10**5000 - 1},1"
        finally:
            sys.set_int_max_str_digits(old)
        captured = capsys.readouterr()
        assert code == 0, captured.err
        assert captured.out.splitlines()[1] == expected

    @pytest.mark.parametrize("command", ["run", "oracle"])
    @pytest.mark.parametrize("events", [1, 2])
    def test_an_aggregate_past_the_int_digit_limit_exits_2(
        self, workdir, capsys, int_digit_limit, command, events
    ):
        # One 4,300-digit v sums to itself; two give 3 trends and a
        # SUM(A.v) of 4v, 4,301 digits: no row is written.
        v = "9" * 4300
        rows = "".join(f"{t},A,{v}\n" for t in range(1, events + 1))
        (workdir / "big.csv").write_text("time,type,v\n" + rows)
        (workdir / "big.txt").write_text(
            "RETURN COUNT(*), SUM(A.v) PATTERN A+ SEMANTICS any WITHIN 10 s\n"
        )
        code = _run([command, "--query", workdir / "big.txt", "--input", workdir / "big.csv"])
        captured = capsys.readouterr()
        header = "wid,window_start_ms,window_end_ms,COUNT(*),SUM(A.v)"
        if events == 1:
            assert code == 0, captured.err
            assert captured.out.splitlines() == [header, f"0,0,10000,1,{v}"]
            return
        assert (code, captured.out) == (2, "")
        assert captured.err == "error: window 0: SUM(A.v) has more than 4300 digits\n"

    @pytest.mark.parametrize(
        "where, rows",
        [
            # B.v > A.v reads as B before A, which SEQ(A, B) never has.
            ("B.v > A.v", None),
            # The same check with the earlier event on the left filters.
            ("A.v < B.v", ["wid,window_start_ms,window_end_ms,COUNT(*)"]),
        ],
        ids=["never-adjacent", "adjacent"],
    )
    def test_a_predicate_on_a_pair_never_adjacent_exits_2(
        self, workdir, capsys, where, rows
    ):
        (workdir / "ab.csv").write_text("time,type,v\n1,A,5\n2,B,1\n")
        (workdir / "ab.txt").write_text(
            f"RETURN COUNT(*) PATTERN SEQ(A, B) SEMANTICS any WHERE {where} "
            "WITHIN 100 s\n"
        )
        for command in ("run", "oracle"):
            code = _run(
                [command, "--query", workdir / "ab.txt", "--input", workdir / "ab.csv",
                 "--schema", workdir / "schema.json"]
            )
            captured = capsys.readouterr()
            if rows is None:
                assert (code, captured.out) == (2, "")
                assert captured.err == (
                    "error: B never directly precedes A in the pattern\n"
                )
            else:
                assert (code, captured.out.splitlines()) == (0, rows)

    @pytest.mark.parametrize(
        "rows, returns, where, message",
        [
            # The first event lacks v and is only ever a predecessor.
            ("1,A\n2,A,v=2\n", "COUNT(*)", "WHERE A.v < NEXT(A).v",
             "adjacency predicate needs attribute v, absent on event"),
            # The last event lacks v and is only ever a successor.
            ("1,A,v=1\n2,A,v=2\n3,A\n", "COUNT(*)", "WHERE A.v < NEXT(A).v",
             "adjacency predicate needs attribute v, absent on event"),
            # The middle event lacks v and plays both parts.
            ("1,A,v=1\n2,A\n3,A,v=3\n", "COUNT(*)", "WHERE A.v < NEXT(A).v",
             "adjacency predicate needs attribute v, absent on event"),
            # An aggregated attribute is missing.
            ("1,A,v=1\n2,A,w=5\n", "SUM(A.w)", "",
             "aggregate needs A.w, absent on event"),
        ],
        ids=["predecessor", "successor", "both", "aggregated"],
    )
    def test_a_missing_attribute_reads_the_same_in_run_and_oracle(
        self, workdir, capsys, rows, returns, where, message
    ):
        (workdir / "gappy.csv").write_text("time,type\n" + rows)
        (workdir / "gappy.txt").write_text(
            f"RETURN {returns} PATTERN A+ SEMANTICS any {where} WITHIN 100 s\n"
        )
        for command in ("run", "oracle"):
            code = _run(
                [command, "--query", workdir / "gappy.txt",
                 "--input", workdir / "gappy.csv"]
            )
            captured = capsys.readouterr()
            assert (command, code, captured.out, captured.err) == (
                command, 2, "", f"error: {message}\n"
            )

    @pytest.mark.parametrize(
        "command, query, extra, message",
        [
            ("run", "junk RETURN COUNT(*) PATTERN A+ SEMANTICS any WITHIN 100 s", [],
             "unexpected text before first clause: 'junk'"),
            ("run", "RETURN COUNT(*) PATTERN A+ SEMANTICS any "
             "WHERE A.v < 1.2.3 WITHIN 100 s", [], "bad constant '1.2.3'"),
            ("run", "RETURN COUNT(*) PATTERN A+ SEMANTICS any "
             "WHERE A.v < A.s WITHIN 100 s", [],
             "incomparable attribute kinds in 'A.v < A.s'"),
            ("run", "RETURN COUNT(*) PATTERN A+ SEMANTICS any "
             "WHERE [1x] WITHIN 100 s", [], "bad equivalence predicate '[1x]'"),
            ("run", "RETURN COUNT(*) PATTERN A+ SEMANTICS any "
             "WHERE A.v WITHIN 100 s", [], "bad predicate 'A.v'"),
            ("run", "RETURN COUNT(*) PATTERN A+ SEMANTICS any "
             "WHERE 3 < A.v WITHIN 100 s", [],
             "left side of '3 < A.v' must be Variable.attr"),
            ("run", "RETURN COUNT(*) PATTERN SEQ(A+, B) SEMANTICS any "
             "WHERE A.v < NEXT(B).v WITHIN 100 s", [],
             "NEXT(B) must refer to the left variable A"),
            ("run", "RETURN SUM(*) PATTERN A+ SEMANTICS any WITHIN 100 s", [],
             "SUM(*) is not a thing"),
            ("run", "RETURN COUNT(A.v) PATTERN A+ SEMANTICS any WITHIN 100 s", [],
             "COUNT takes a variable, not an attribute"),
            ("run", "RETURN MIN(A) PATTERN A+ SEMANTICS any WITHIN 100 s", [],
             "MIN needs Variable.attr"),
            ("run", "RETURN 3x PATTERN A+ SEMANTICS any WITHIN 100 s", [],
             "bad RETURN item '3x'"),
            ("run", "RETURN COUNT(*) PATTERN A+ SEMANTICS any "
             "GROUP-BY v.x WITHIN 100 s", [], "bad GROUP-BY item 'v.x'"),
            ("oracle", "RETURN COUNT(*) PATTERN A+ SEMANTICS next WITHIN 100 s",
             ["--oracle-cap", 2], "trend enumeration exceeded cap of 2"),
        ],
    )
    def test_user_errors_exit_2_with_one_line(
        self, tmp_path, capsys, command, query, extra, message
    ):
        (tmp_path / "e.csv").write_text(
            "time,type,v,s\n1,A,1,x\n2,A,2,y\n3,B,3,z\n4,A,4,w\n"
        )
        (tmp_path / "q.txt").write_text(query + "\n")
        code = _run(
            [command, "--query", tmp_path / "q.txt", "--input", tmp_path / "e.csv",
             *extra]
        )
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (2, "", f"error: {message}\n")


    @pytest.mark.parametrize(
        "window, offset",
        [
            ("WITHIN 10000 s", 0),
            # From 5,001 s on, every event falls into windows 0 and 1, so the
            # cells are vectors of two windows.
            ("WITHIN 10000 s SLIDE 5000 s", 5000),
        ],
        ids=["tumbling", "sliding"],
    )
    @pytest.mark.parametrize(
        "returns, values, message",
        [
            # 1,100 A events under skip-till-any-match: about 2^1100 trends,
            # a count no float can hold, weights every float value.
            ("SUM(A.v)", ["0.5"] * 1100, "the sum of A.v exceeds the float range"),
            ("AVG(A.v)", ["0.5"] * 1100, "the sum of A.v exceeds the float range"),
            # An exact integer sum whose mean is beyond the float range.
            ("AVG(A.v)", ["1" + "0" * 400] * 3, "AVG(A.v) exceeds the float range"),
        ],
    )
    def test_float_overflow_exits_2(
        self, workdir, capsys, returns, values, message, window, offset
    ):
        (workdir / "big.csv").write_text(
            "time,type,v\n"
            + "".join(f"{t},A,{v}\n" for t, v in enumerate(values, offset + 1))
        )
        (workdir / "big.txt").write_text(
            f"RETURN {returns} PATTERN A+ SEMANTICS any {window}\n"
        )
        code = _run(
            ["run", "--query", workdir / "big.txt", "--input", workdir / "big.csv"]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith(f"error: {message}: ")


ROOT = Path(__file__).resolve().parents[1]


def _module(args, **env):
    """Run ``python -m trendagg`` from the checkout in a child process."""
    env = {**os.environ, **env}
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "trendagg", *map(str, args)],
        capture_output=True, env=env, timeout=60,
    )


@pytest.mark.parametrize("command", ["run", "oracle"])
def test_a_float_sum_past_the_float_range_reads_inf(workdir, capsys, command):
    (workdir / "big.csv").write_text("time,type,v\n1,A,1e308\n2,A,1e308\n")
    (workdir / "big.txt").write_text(
        "RETURN COUNT(*), SUM(A.v), AVG(A.v) PATTERN A+ SEMANTICS any WITHIN 100 s\n"
    )
    code = _run(
        [command, "--query", workdir / "big.txt", "--input", workdir / "big.csv"]
    )
    assert code == 0
    assert capsys.readouterr().out.splitlines() == [
        "wid,window_start_ms,window_end_ms,COUNT(*),SUM(A.v),AVG(A.v)",
        "0,0,100000,3,inf,inf",
    ]


class _ClosedPipe:
    """A stdout whose reader has gone, as under ``trendagg run ... | head``."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("command", ["run", "oracle"])
def test_a_closed_stdout_ends_quietly(workdir, capsys, monkeypatch, command):
    with monkeypatch.context() as patched:
        patched.setattr(sys, "stdout", _ClosedPipe())
        code = _run(
            [command, "--query", workdir / "q.txt", "--input", workdir / "stream.csv"]
        )
    assert code == 0
    assert capsys.readouterr().err == ""


def test_module_entry_point():
    done = _module(["--help"])
    assert done.returncode == 0
    assert done.stdout.startswith(b"usage: trendagg")


def test_retired_bench_subcommand_is_a_usage_error(workdir):
    done = _module(
        ["bench", "--query", workdir / "q.txt", "--input", workdir / "stream.csv"]
    )
    assert done.returncode == 2
    assert b"invalid choice: 'bench'" in done.stderr
    assert b"Traceback" not in done.stderr


@pytest.mark.parametrize("command", ["run", "oracle"])
def test_a_semantics_option_is_a_usage_error(workdir, command):
    # The query's SEMANTICS clause is the one way to pick the semantics.
    done = _module(
        [command, "--query", workdir / "q.txt", "--input", workdir / "stream.csv",
         "--semantics", "next"]
    )
    assert (done.returncode, done.stdout) == (2, b"")
    assert done.stderr.startswith(b"usage: trendagg")
    assert b"unrecognized arguments: --semantics next" in done.stderr
    assert b"Traceback" not in done.stderr


@pytest.mark.parametrize("command", ["run", "oracle"])
def test_output_file_is_utf8_under_a_posix_locale(tmp_path, command):
    (tmp_path / "s.csv").write_text(
        "time,type,v,s\n1,A,5,\u20acuro\n2,B,3,\u20acuro\n", encoding="utf-8"
    )
    (tmp_path / "q.txt").write_text(
        "RETURN s, COUNT(*) PATTERN SEQ(A, B) SEMANTICS any "
        "GROUP-BY s WITHIN 100 s\n"
    )
    out = tmp_path / "out.csv"
    done = _module(
        [command, "--query", tmp_path / "q.txt", "--input", tmp_path / "s.csv",
         "--output", out],
        LC_ALL="POSIX", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0",
    )
    assert done.returncode == 0, done.stderr
    assert out.read_text(encoding="utf-8").splitlines()[1] == "0,0,100000,\u20acuro,1"


def test_readme_names_only_real_subcommands():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```sh\n(.*?)^```", readme, flags=re.M | re.S)
    named = set(re.findall(r"\btrendagg (\w+)", "\n".join(blocks)))
    sub = next(
        action for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    assert named and named <= set(sub.choices)


def test_readme_python_examples_run(capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", readme, flags=re.M | re.S)
    assert len(blocks) == 2
    namespace = {}
    exec(compile(blocks[0], "README.md", "exec"), namespace)
    printed = capsys.readouterr().out.splitlines()
    comment = re.search(r"^print\(engine\.results\(\)\) +# (.*)$", blocks[0], re.M)
    assert printed[0] == comment.group(1) == "{'COUNT(*)': 1}"
    # The oracle block's last line is an expression; evaluate it.
    *statements, last = blocks[1].strip().splitlines()
    exec(compile("\n".join(statements), "README.md", "exec"), namespace)
    value = eval(compile(last, "README.md", "eval"), namespace)
    assert value == namespace["engine"].results()
