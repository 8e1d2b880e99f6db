"""End-to-end benchmark of trendagg: CSV in, result rows out.

``python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>``
generates a stream, checks the engine against the enumerating oracle on a
check-sized copy of the workload, times a fresh interpreter's set-up, and
replays the full stream through the pipeline for ``--seconds`` seconds.
The last line of standard output is one JSON object with the metrics.
"""
