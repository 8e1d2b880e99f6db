"""End-to-end command line behaviour (in-process, via main(argv))."""

import argparse
import os
import re
import subprocess
import sys
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
        for semantics, expected in (("any", 43), ("next", 8), ("cont", 2)):
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
                "8 events -> 1 rows, peak state 3 entries\n"
            )

    def test_stdout_default(self, workdir, capsys):
        code = _run(
            ["run", "--query", workdir / "q.txt", "--input", workdir / "stream.csv"]
        )
        assert code == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out == ["wid,window_start_ms,window_end_ms,COUNT(*)", "0,0,100000,43"]

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
            "gen without passengers",
            "gen without stations",
            "gen with a negative duration",
            "duplicate column",
            "repeated key=value attribute",
            "column without a name",
            "key=value attribute without a name",
        ],
    )
    def test_unusable_input_files_exit_2(self, workdir, capsys, case):
        (workdir / "notjson.json").write_text("{not json")
        (workdir / "double.json").write_text('{"A": {"v": "double"}}')
        (workdir / "list.json").write_text('["A"]')
        (workdir / "latin1.csv").write_bytes(b"time,type,v\n1,A,caf\xe9\n")
        (workdir / "latin1.txt").write_bytes(b"RETURN COUNT(*) -- caf\xe9\n")
        (workdir / "dupcol.csv").write_text("time,type,v,v\n1,A,5,6\n")
        (workdir / "dupkey.csv").write_text("time,type\n1,A,v=5\n2,B,v=3,v=4\n")
        (workdir / "nameless.csv").write_text("time,type,,v\n1,A,3,5\n")
        (workdir / "namelesskey.csv").write_text("time,type\n1,A,v=5\n2,B,=5\n")
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
            "gen without passengers": [*gen, "--passengers", 0],
            "gen without stations": [*gen, "--stations", 0],
            "gen with a negative duration": [*gen, "--duration", -5],
            "duplicate column": run("--input", workdir / "dupcol.csv"),
            "repeated key=value attribute": run("--input", workdir / "dupkey.csv"),
            "column without a name": run("--input", workdir / "nameless.csv"),
            "key=value attribute without a name": run(
                "--input", workdir / "namelesskey.csv"
            ),
        }[case]
        code = _run(argv)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and "Traceback" not in err
        if case == "duplicate column":
            assert err == "error: row 1: duplicate column 'v'\n"
        if case == "repeated key=value attribute":
            assert err == "error: row 3: repeated attribute 'v'\n"
        if case == "column without a name":
            assert err == "error: row 1: column 3 has no name\n"
        if case == "key=value attribute without a name":
            assert err == "error: row 3: no attribute name in '=5'\n"

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
