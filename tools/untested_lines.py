"""List the statements of ``src/trendagg`` that a test run never executes.

    python3 tools/untested_lines.py [pytest arguments ...]

Runs pytest in this process (from the repository root, so with the
``pyproject.toml`` settings) under a ``sys.settrace`` hook that traces
only frames of code in ``src/trendagg``. Then it prints, module by
module, the statement lines that never ran, consecutive statements
grouped in ranges, and exits with pytest's exit code. It uses the
standard library only. The hook makes the run slower (the whole suite
took 158 s under it against 62 s without, on a 2-vCPU VM), so it is a
tool to run by hand, not a test.

A statement line is the first line of a statement that compiles to at
least one instruction; docstrings, and lines such as ``try:`` or
``else:``, are not counted. Code that the package generates at run time
(its cell functions, kernel steps, filters and CSV decoders) has no file
and is left out.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "trendagg"


def statement_lines(path: Path) -> list[int]:
    """The first lines of the statements in ``path`` that hold code."""
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source)
    starts = {node.lineno for node in ast.walk(tree) if isinstance(node, ast.stmt)}
    with_code = set()
    todo = [compile(source, str(path), "exec")]
    while todo:
        code = todo.pop()
        with_code.update(line for _, _, line in code.co_lines() if line is not None)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return sorted(starts & with_code)


def ranges(lines: list[int], order: list[int]) -> str:
    """``lines`` as ranges of statements that follow each other in ``order``."""
    position = {line: i for i, line in enumerate(order)}
    runs: list[list[int]] = []
    for line in lines:
        if runs and position[line] == position[runs[-1][-1]] + 1:
            runs[-1].append(line)
        else:
            runs.append([line])
    return ", ".join(str(r[0]) if len(r) == 1 else f"{r[0]}-{r[-1]}" for r in runs)


def main(argv: list[str]) -> int:
    executed: dict[str, set] = {}  # file name -> lines that ran
    inside: dict[str, set | None] = {}  # file name -> its set, or None outside

    def lines_of(filename):
        if filename not in inside:
            path = Path(filename).resolve()
            inside[filename] = (
                executed.setdefault(str(path), set()) if PACKAGE in path.parents else None
            )
        return inside[filename]

    def trace(frame, event, arg):
        ran = lines_of(frame.f_code.co_filename)
        if ran is None:
            return None

        def local(frame, event, arg):
            if event == "line":
                ran.add(frame.f_lineno)
            return local

        return local

    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    import pytest

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", *argv])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        order = statement_lines(path)
        missed = [line for line in order if line not in executed.get(str(path), ())]
        total += len(missed)
        if missed:
            print(f"{path.relative_to(ROOT)}: {ranges(missed, order)}")
    print(f"{total} statement lines never ran")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
