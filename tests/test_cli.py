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


def _run(args):
    return main([str(a) for a in args])


class TestRun:
    def test_showcase_counts(self, workdir, capsys):
        # Type-grained under every semantics, one cell per variable with
        # readable trends. any: cells for A and B, plus A's shadow while a3's
        # timestamp lasts. next: an event consumes the cell it reads, so one
        # cell is held at a time. cont: the cell the last timestamp passed on
        # and the current timestamp's.
        for semantics, expected, peak in (
            ("any", 43, 3), ("next", 8, 1), ("cont", 2, 2)
        ):
            out = workdir / f"out_{semantics}.csv"
            code = _run(
                ["run", "--query", workdir / "q.txt", "--input",
                 workdir / "stream.csv", "--schema", workdir / "schema.json",
                 "--semantics", semantics, "--output", out]
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
        ],
        ids=["str-column", "int-in-float-column", "float-sum-overflow"],
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

    @pytest.mark.parametrize("emit_empty", [[], ["--emit-empty"]])
    @pytest.mark.parametrize("command", ["run", "oracle"])
    def test_aliased_next_pattern_exits_2(self, workdir, capsys, command, emit_empty):
        # The stream holds no A event, so no event plays two variables; both
        # subcommands still refuse the pattern itself.
        (workdir / "noa.csv").write_text("time,type,v\n1,B,5\n2,C,3\n")
        (workdir / "alias.txt").write_text(
            "RETURN COUNT(*) PATTERN SEQ(A X+, A Y) SEMANTICS next WITHIN 100 s\n"
        )
        code = _run(
            [command, "--query", workdir / "alias.txt", "--input", workdir / "noa.csv",
             "--schema", workdir / "schema.json", *emit_empty]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == (
            "error: skip-till-next-match cannot run a pattern that binds one "
            "stream type to several variables\n"
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
    def test_float_overflow_exits_2(self, workdir, capsys, returns, values, message):
        (workdir / "big.csv").write_text(
            "time,type,v\n" + "".join(f"{t},A,{v}\n" for t, v in enumerate(values, 1))
        )
        (workdir / "big.txt").write_text(
            f"RETURN {returns} PATTERN A+ SEMANTICS any WITHIN 10000 s\n"
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
