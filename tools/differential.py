"""Compare ``trendagg run`` with ``trendagg oracle`` on random small streams.

    python3 tools/differential.py [SEED ...]

For each seed (default: 1) it draws 60 streams of 3 to 9 events of types
A, B and C, at whole seconds from 0 to 14 (so ties are common), each with
an int ``v`` from 0 to 4 that one event in five lacks. Every stream runs
under each of 6 patterns with adjacency predicates, one of them binding A
to two variables, each of the 3 semantics (written into the query's
SEMANTICS clause), 3 window shapes, ``--emit-empty`` on and off, and two
RETURN clauses: ``COUNT(*)`` and ``COUNT(*), SUM(v)``, the sum of ``v``
over the pattern's first variable (``A``, or ``X`` where A plays ``X`` and
``Y``). Both commands run in this process through
``trendagg.cli.main`` with ``--schema``; a case agrees when their exit
codes, stdout and stderr, less the ``N events -> ...`` summary line, are
the same.

It prints the number of disagreements per semantics and RETURN clause,
and the first case of each kind of disagreement: the query, the flag, the
stream and what each command printed. It exits 1 when a ``COUNT(*)`` case
disagrees; the ``SUM(v)`` cases are reported but do not set the exit
code. It uses the standard library only.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import random
import re
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from trendagg.cli import main as cli_main  # noqa: E402
from trendagg.events import Schema  # noqa: E402

STREAMS = 60
PATTERNS = (  # (pattern, WHERE clause, the variable SUM(v) reads)
    ("A+", "A.v < NEXT(A).v", "A"),
    ("SEQ(A+, B)", "A.v <= B.v", "A"),
    ("(SEQ(A+, B))+", "B.v < A.v", "A"),
    ("SEQ(A+, B+)", "A.v < B.v AND B.v < NEXT(B).v", "A"),
    ("SEQ(A+, B, C+)", "B.v != C.v AND C.v < NEXT(C).v", "A"),
    ("SEQ(A X+, A Y)", "X.v >= NEXT(X).v AND X.v = Y.v", "X"),
)
SEMANTICS = ("any", "next", "cont")
WINDOWS = ("WITHIN 10 s", "WITHIN 10 s SLIDE 5 s", "WITHIN 6 s SLIDE 2 s")
RETURNS = ("COUNT(*)", "COUNT(*), SUM(v)")
GATED = "COUNT(*)"  # disagreements under this RETURN clause fail the run
SCHEMA = Schema({t: {"v": "int"} for t in "ABC"})
SUMMARY = re.compile(r"\d+ events -> \d+ rows.*\n")


def draw_stream(rng: random.Random) -> str:
    """A typed-column CSV of 3 to 9 events."""
    n = rng.randint(3, 9)
    rows = ["time,type,v"]
    for time in sorted(rng.randint(0, 14) for _ in range(n)):
        v = "" if rng.random() < 0.2 else rng.randint(0, 4)
        rows.append(f"{time},{rng.choice('ABC')},{v}")
    return "\n".join(rows) + "\n"


def outcome(argv) -> tuple:
    """``cli.main``'s exit code, stdout and stderr less the summary line."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    return code, out.getvalue(), SUMMARY.sub("", err.getvalue())


def kind_of(run, oracle) -> str:
    """A short name for a disagreement: the error, or ``rows differ``."""
    for name, (code, _, err) in (("run", run), ("oracle", oracle)):
        if code != 0:
            return f"{name} exits {code}: {err.strip()}"
    return "rows differ"


def differ(seed: int, tmp: Path) -> tuple[Counter, Counter, dict]:
    """Cases and disagreements per (semantics, returns), and the first
    case of each kind of disagreement, for one seed."""
    rng = random.Random(seed)
    SCHEMA.to_json(tmp / "schema.json")
    streams = []
    for i in range(STREAMS):
        path = tmp / f"stream{i}.csv"
        path.write_text(draw_stream(rng), encoding="utf-8")
        streams.append(path)
    cases, disagreements, first = Counter(), Counter(), {}
    for (pattern, where, summed), semantics, window, returns in itertools.product(
        PATTERNS, SEMANTICS, WINDOWS, RETURNS
    ):
        clause = returns.replace("SUM(v)", f"SUM({summed}.v)")
        text = f"RETURN {clause} PATTERN {pattern} SEMANTICS {semantics} WHERE {where} {window}\n"
        query = tmp / "query.txt"
        query.write_text(text, encoding="utf-8")
        for stream in streams:
            for flags in ([], ["--emit-empty"]):
                argv = ["--query", str(query), "--input", str(stream),
                        "--schema", str(tmp / "schema.json"), *flags]
                run, oracle = outcome(["run", *argv]), outcome(["oracle", *argv])
                cases[semantics, returns] += 1
                if run == oracle:
                    continue
                disagreements[semantics, returns] += 1
                kind = kind_of(run, oracle)
                first.setdefault(kind, (text, flags, stream.read_text(), run, oracle))
    return cases, disagreements, first


def report(seed: int, cases: Counter, disagreements: Counter, first: dict) -> None:
    print(f"seed {seed}")
    print(f"  {'semantics':9}  {'returns':19}  {'cases':>5}  disagreements")
    for returns in RETURNS:
        for semantics in SEMANTICS:
            key = semantics, returns
            print(f"  {semantics:9}  {returns:19}  {cases[key]:5}  {disagreements[key]}")
    for kind, (text, flags, stream, run, oracle) in sorted(first.items()):
        print(f"  first case of: {kind}")
        print(f"    query: {text.strip()}")
        print(f"    flags: {' '.join(flags) or '(none)'}")
        print("    stream: " + " / ".join(stream.splitlines()[1:]))
        for name, (code, out, err) in (("run", run), ("oracle", oracle)):
            shown = " / ".join(out.splitlines()[1:]) or "(no rows)"
            print(f"    {name}: exit {code}, rows {shown}, stderr {err.strip() or '(empty)'}")


def main(argv: list[str]) -> int:
    seeds = [int(a) for a in argv] or [1]
    failed = False
    for seed in seeds:
        with tempfile.TemporaryDirectory(prefix="trendagg-differential-") as tmp:
            cases, disagreements, first = differ(seed, Path(tmp))
        report(seed, cases, disagreements, first)
        failed |= any(disagreements[s, GATED] for s in SEMANTICS)
    return int(failed)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
