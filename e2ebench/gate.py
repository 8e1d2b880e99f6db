"""Correctness gate: engine rows against the enumerating oracle.

Rows are compared as the CSV a user reads. A row is identified by its
window and partition columns; trend counts must match exactly and floats
within a relative 1e-9, as in the repository's tests. Every wrong, missing
or extra row counts as one error.
"""

from __future__ import annotations

import csv
import math

import trendagg.cli as cli
import trendagg.events as events
import trendagg.query as query_mod

from e2ebench.pipeline import run_pass


def read_rows(path) -> list:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def same_value(a: str, b: str) -> bool:
    if a == b:
        return True
    try:
        int(a), int(b)
    except ValueError:
        pass
    else:
        return False  # counts are exact
    try:
        return math.isclose(float(a), float(b), rel_tol=1e-9, abs_tol=1e-12)
    except ValueError:
        return False


def count_errors(reference: list, got: list, nkey: int, same=same_value) -> int:
    """Wrong + missing + extra rows of ``got``; both lists start with a header."""
    if not reference or not got or reference[0] != got[0]:
        return max(len(reference) - 1, 0) + max(len(got) - 1, 0)
    want = {tuple(row[:nkey]): row[nkey:] for row in reference[1:]}
    have = {tuple(row[:nkey]): row[nkey:] for row in got[1:]}
    missing = len(want.keys() - have.keys())
    extra = len(have.keys() - want.keys()) + (len(got) - 1 - len(have))
    wrong = sum(
        1
        for key in want.keys() & have.keys()
        if len(want[key]) != len(have[key])
        or not all(map(same, want[key], have[key]))
    )
    return wrong + missing + extra


def key_columns(query) -> int:
    return 3 + len(query.partition_attrs)


def check_against_oracle(stream_path, schema_path, query_text, work_dir):
    """Run the pipeline and the oracle on one stream; (errors, reference rows)."""
    engine_out = work_dir / "check-engine.csv"
    oracle_out = work_dir / "check-oracle.csv"
    run_pass(stream_path, schema_path, query_text, engine_out)
    schema = events.Schema.from_json(schema_path)
    query = query_mod.parse_query(query_text, schema)
    stream = list(events.read_csv_stream(stream_path, schema=schema))
    with open(oracle_out, "w", newline="") as fh:
        cli.write_rows(cli.oracle_rows(query, stream), query, fh)
    reference = read_rows(oracle_out)
    errors = count_errors(reference, read_rows(engine_out), key_columns(query))
    return errors, len(reference) - 1
