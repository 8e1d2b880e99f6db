"""End-to-end command line behaviour (in-process, via main(argv))."""

import pytest

from trendagg.cli import main
from trendagg.events import write_csv_stream

from conftest import ABC_SCHEMA, SHOWCASE

QUERY_TEXT = "RETURN COUNT(*) PATTERN (SEQ(A+, B))+ SEMANTICS any WITHIN 100 s\n"


@pytest.fixture
def workdir(tmp_path):
    write_csv_stream(SHOWCASE, tmp_path / "stream.csv", schema=ABC_SCHEMA)
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
            assert f"8 events -> 1 rows" in capsys.readouterr().err

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
        write_csv_stream([], empty, schema=ABC_SCHEMA)
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
        write_csv_stream(events, workdir / "wide.csv", schema=ABC_SCHEMA)
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

    def test_bench_prints_table(self, workdir, capsys):
        assert _run(
            ["bench", "--query", workdir / "q.txt", "--input",
             workdir / "stream.csv", "--reps", 1]
        ) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out[0].startswith("backend")
        assert len(out) >= 2


class TestErrors:
    def test_bad_query_exits_2(self, workdir, capsys):
        (workdir / "bad.txt").write_text("RETURN COUNT(*) WITHIN 10 s\n")
        code = _run(
            ["run", "--query", workdir / "bad.txt",
             "--input", workdir / "stream.csv"]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_group_attribute_exits_2(self, workdir, capsys):
        (workdir / "grouped.txt").write_text(
            "RETURN COUNT(*) PATTERN (SEQ(A+, B))+ SEMANTICS any "
            "GROUP-BY missing WITHIN 100 s\n"
        )
        code = _run(
            ["run", "--query", workdir / "grouped.txt",
             "--input", workdir / "stream.csv"]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err
