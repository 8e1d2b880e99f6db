"""Incremental aggregation of event trends matched by Kleene patterns.

Evaluates queries of the form

    RETURN <aggregates> PATTERN <kleene pattern> SEMANTICS <matching mode>
    WHERE <predicates> GROUP-BY <attrs> WITHIN <dur> SLIDE <dur>

over time-ordered event streams, maintaining the aggregates online -
without materializing the (worst-case exponential) set of matched trends.
A brute-force enumerating oracle ships alongside for verification.
"""

from .bench import BenchResult, run_benchmark
from .engines import Engine, build_engine, build_kernel_plan
from .errors import (
    DuplicateTypeInPattern,
    ExplosionGuard,
    MalformedRow,
    MissingAttribute,
    MissingGroupAttribute,
    OutOfOrder,
    QuerySyntaxError,
    TrendAggError,
    UnknownAttribute,
    UnknownType,
    UnsupportedQuery,
)
from .events import (
    TRANSPORT_SCHEMA,
    Event,
    Schema,
    StreamSource,
    generate_transport_stream,
    infer_schema,
    read_csv_stream,
    write_csv_stream,
)
from .kernels import get_backend
from .oracle import (
    Trend,
    aggregate_trends,
    enumerate_any,
    enumerate_cont,
    enumerate_next,
    enumerate_trends,
)
from .pattern import (
    PatternTemplate,
    Plus,
    Seq,
    TypeAtom,
    compile_template,
    parse_pattern,
)
from .query import (
    Adjacent,
    AggKind,
    AggSpec,
    Equivalence,
    Granularity,
    GranularityPlan,
    Local,
    Op,
    Query,
    Semantics,
    classify_and_plan,
    load_query,
    parse_query,
)
from .windows import ResultRow, WindowManager, WindowSpec, windows_of

__version__ = "0.1.0"

__all__ = [
    "Adjacent",
    "AggKind",
    "AggSpec",
    "BenchResult",
    "DuplicateTypeInPattern",
    "Engine",
    "Equivalence",
    "Event",
    "ExplosionGuard",
    "Granularity",
    "GranularityPlan",
    "Local",
    "MalformedRow",
    "MissingAttribute",
    "MissingGroupAttribute",
    "Op",
    "OutOfOrder",
    "PatternTemplate",
    "Plus",
    "Query",
    "QuerySyntaxError",
    "ResultRow",
    "Schema",
    "Semantics",
    "Seq",
    "StreamSource",
    "TRANSPORT_SCHEMA",
    "Trend",
    "TrendAggError",
    "TypeAtom",
    "UnknownAttribute",
    "UnknownType",
    "UnsupportedQuery",
    "WindowManager",
    "WindowSpec",
    "aggregate_trends",
    "build_engine",
    "build_kernel_plan",
    "classify_and_plan",
    "compile_template",
    "enumerate_any",
    "enumerate_cont",
    "enumerate_next",
    "enumerate_trends",
    "generate_transport_stream",
    "get_backend",
    "infer_schema",
    "load_query",
    "parse_pattern",
    "parse_query",
    "read_csv_stream",
    "run_benchmark",
    "windows_of",
    "write_csv_stream",
]
