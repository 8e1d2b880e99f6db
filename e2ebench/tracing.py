"""Span tracing of a pass, by wrapping the public calls into each module.

Nothing inside ``src/`` is instrumented: ``Tracer.install`` replaces module
functions and class methods with timing wrappers and ``uninstall`` puts the
originals back. Each span records its name, start, end and parent span;
spans are kept in flat arrays and written out after the pass. A span's self
time is its duration minus the durations of its child spans.
"""

from __future__ import annotations

import time
from array import array

import trendagg.cli as cli
import trendagg.events as events
import trendagg.query as query_mod
import trendagg.windows as windows
from trendagg import kernels
from trendagg.engines import Engine

SPANS = (
    "events.read",
    "query.parse",
    "query.role_probe",
    "windows.ingest",
    "windows.windows_of",
    "windows.close_expired",
    "windows.finish",
    "engines.init",
    "engines.step",
    "engines.results",
    "kernels.step",
    "cli.write",
)
_ID = {name: i for i, name in enumerate(SPANS)}


class Tracer:
    def __init__(self):
        self.names = array("B")
        self.parents = array("l")
        self.starts = array("q")
        self.ends = array("q")
        self._stack = []
        self.matched = 0
        self.pred_accesses = 0
        self.wrapped_kernels = []
        self._saved = []

    def _wrap(self, name, fn, hook=None):
        name_id = _ID[name]
        names, parents, starts, ends = self.names, self.parents, self.starts, self.ends
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(args, result)
            return result

        return traced

    def _patch(self, owner, attr, name, hook=None):
        original = owner.__dict__[attr]
        setattr(owner, attr, self._wrap(name, original, hook))
        self._saved.append((owner, attr, original))

    def _on_probe(self, args, roles):
        if roles:
            self.matched += 1

    def _on_results(self, args, values):
        self.pred_accesses += args[0].kernel.pred_accesses

    def install(self):
        self._patch(events, "read_csv_stream", "events.read")
        self._patch(query_mod, "parse_query", "query.parse")
        self._patch(query_mod.RoleProbe, "__call__", "query.role_probe", self._on_probe)
        self._patch(windows.WindowManager, "ingest", "windows.ingest")
        self._patch(windows, "windows_of", "windows.windows_of")
        self._patch(windows.WindowManager, "close_expired", "windows.close_expired")
        self._patch(windows.WindowManager, "finish", "windows.finish")
        self._patch(Engine, "__init__", "engines.init")
        self._patch(Engine, "step_with_roles", "engines.step")
        self._patch(Engine, "results", "engines.results", self._on_results)
        self._patch(cli, "write_rows", "cli.write")
        backend = kernels.get_backend()
        for cls_name in ("TypeKernel", "MixedKernel", "PatternKernel"):
            cls = getattr(backend, cls_name)
            try:
                self._patch(cls, "step", "kernels.step")
            except TypeError:  # compiled extension types refuse new attributes
                continue
            self.wrapped_kernels.append(cls_name)
        return self

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def summary(self, pass_ns: int) -> dict:
        """Self time and call count per span name, plus the uncovered rest."""
        durations = [end - start for start, end in zip(self.starts, self.ends)]
        child = [0] * len(durations)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += durations[i]
        self_ns = [0] * len(SPANS)
        calls = [0] * len(SPANS)
        covered = 0
        for i, name_id in enumerate(self.names):
            self_ns[name_id] += durations[i] - child[i]
            calls[name_id] += 1
            if self.parents[i] < 0:
                covered += durations[i]
        return {
            "self_ns": dict(zip(SPANS, self_ns)),
            "calls": dict(zip(SPANS, calls)),
            "uncovered_ns": pass_ns - covered,
        }

    def write(self, path):
        """Write the spans as CSV, times relative to the first span's start."""
        origin_ns = self.starts[0] if self.starts else 0
        with open(path, "w") as fh:
            fh.write("span,name,start_ns,end_ns,parent\n")
            for i, name_id in enumerate(self.names):
                fh.write(
                    f"{i},{SPANS[name_id]},{self.starts[i] - origin_ns},"
                    f"{self.ends[i] - origin_ns},{self.parents[i]}\n"
                )
