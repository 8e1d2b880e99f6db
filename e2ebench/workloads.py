"""The benchmark's workloads: one query each over a generated transport stream.

Every workload has a full-size stream, replayed for timing, and a
check-sized stream from the same generator and seed with fewer passengers,
small enough for the enumerating oracle while windows still close
mid-stream.
"""

from __future__ import annotations

from dataclasses import dataclass

from trendagg import generate_transport_stream


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    query: str
    full: tuple  # (passengers, stations, duration_s)
    check: tuple  # (passengers, stations, duration_s)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="mixed-slide",
            why=(
                "mixed granularity, 600 s/60 s sliding windows by passenger: "
                "fan-out ~8.5, ~6k engines and rows; the scan of stored "
                "events for T.wait < NEXT(T).wait dominates"
            ),
            query=(
                "RETURN passenger, COUNT(*), SUM(T.wait) "
                "PATTERN Trip T+ SEMANTICS any WHERE T.wait < NEXT(T).wait "
                "GROUP-BY passenger WITHIN 600 s SLIDE 60 s"
            ),
            full=(200, 20, 1800),
            check=(3, 20, 1800),
        ),
        Workload(
            name="type-tumble",
            why=(
                "120k events, tumbling 600 s by station with a local filter "
                "on every event: fan-out 1, 120 engines and rows; CSV read "
                "dominates, read-heavy"
            ),
            query=(
                "RETURN station, COUNT(*), MIN(T.wait), AVG(T.wait) "
                "PATTERN Trip T+ SEMANTICS any WHERE T.wait > 3 "
                "GROUP-BY station WITHIN 600 s"
            ),
            full=(1000, 20, 3600),
            check=(6, 20, 3600),
        ),
    )
}


def full_stream(workload: Workload, seed: int) -> list:
    return list(generate_transport_stream(*workload.full, seed))


def check_stream(workload: Workload, seed: int) -> list:
    return list(generate_transport_stream(*workload.check, seed))
