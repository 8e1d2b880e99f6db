"""Incremental aggregation of event trends matched by Kleene patterns.

Evaluates queries of the form

    RETURN <aggregates> PATTERN <kleene pattern> SEMANTICS <matching mode>
    WHERE <predicates> GROUP-BY <attrs> WITHIN <dur> SLIDE <dur>

over time-ordered event streams, maintaining the aggregates online -
without materializing the (worst-case exponential) set of matched trends.
A brute-force enumerating oracle ships alongside for verification.
"""

from .engines import Engine, build_engine
from .errors import (
    AggregateOverflow,
    DuplicateTypeInPattern,
    ExplosionGuard,
    InputError,
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
    generate_transport_stream,
    infer_schema,
    read_csv_stream,
    write_csv_stream,
)
from .oracle import (
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
    "AggregateOverflow",
    "AggSpec",
    "DuplicateTypeInPattern",
    "Engine",
    "Equivalence",
    "Event",
    "ExplosionGuard",
    "Granularity",
    "GranularityPlan",
    "InputError",
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
    "TRANSPORT_SCHEMA",
    "TrendAggError",
    "TypeAtom",
    "UnknownAttribute",
    "UnknownType",
    "UnsupportedQuery",
    "WindowManager",
    "WindowSpec",
    "aggregate_trends",
    "build_engine",
    "classify_and_plan",
    "compile_template",
    "enumerate_any",
    "enumerate_cont",
    "enumerate_next",
    "enumerate_trends",
    "generate_transport_stream",
    "infer_schema",
    "load_query",
    "parse_pattern",
    "parse_query",
    "read_csv_stream",
    "windows_of",
    "write_csv_stream",
]
