"""Spans recorded from outside the program, by wrapping public module attributes.

The program's modules call each other through module attributes
(`pipeline.analyze_rough`, `crisp_mod.solve_total_relation`, ...), which
are looked up at call time, so replacing an attribute puts every call to it
inside a span without changing the program. A function that no longer
exists is reported as absent instead of failing the run.

Only the standard library is imported here, so the traced CLI child can
load this module before timing its own `import rdematel.cli`.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import statistics
import time
from collections import defaultdict
from typing import NamedTuple

# (module, attribute); the span is named "<module suffix>.<attribute>"
TRACED = (
    ("rdematel.ingest", "parse_study_bundle"),
    ("rdematel.fixtures", "load_study_bundle"),
    ("rdematel.report", "run_analysis"),
    ("rdematel.report", "deviation_ledger"),
    ("rdematel.report", "render_results_csv"),
    ("rdematel.report", "render_report_json"),
    ("rdematel.report", "render_graph_dot"),
    ("rdematel.report", "render_deviations_csv"),
    ("rdematel.pipeline", "analyze_rough"),
    ("rdematel.pipeline", "collect_group"),
    ("rdematel.pipeline", "rough_group_matrix"),
    ("rdematel.pipeline", "normalize_rough"),
    ("rdematel.pipeline", "rough_total_relation"),
    ("rdematel.pipeline", "rough_sums"),
    ("rdematel.pipeline", "weights"),
    ("rdematel.crisp", "solve_total_relation"),
    ("rdematel.network", "crispify_total"),
    ("rdematel.network", "threshold"),
    ("rdematel.network", "extract_network"),
)


class Tracer:
    """Records (id, parent, name, op, start, end) spans in memory while installed."""

    def __init__(self):
        self.spans: list[tuple[int, int | None, str, int, float, float]] = []
        self.absent: list[str] = []
        self.op = 0
        self._stack: list[int] = []
        self._ids = itertools.count()
        self._originals: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for module_name, attr in TRACED:
            name = f"{module_name.rsplit('.', 1)[-1]}.{attr}"
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.absent.append(name)
                continue
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.absent.append(name)
                continue
            self._originals.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._originals):
            setattr(module, attr, fn)
        self._originals.clear()

    def _wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = next(self._ids)
            parent = self._stack[-1] if self._stack else None
            self._stack.append(span_id)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans.append((span_id, parent, name, self.op, start, end))

        return traced


class SpanRecord(NamedTuple):
    name: str
    incl: float
    self: float  # duration minus the durations of its direct children
    ancestors: frozenset[str]


def span_records(spans, op: int) -> list[SpanRecord]:
    """The spans of one op, with inclusive and self times and the names of their ancestors."""
    spans = [s for s in spans if s[3] == op]
    by_id = {s[0]: s for s in spans}
    child_time: dict[int, float] = defaultdict(float)
    for _, parent, _, _, start, end in spans:
        if parent is not None:
            child_time[parent] += end - start
    records = []
    for span_id, parent, name, _, start, end in spans:
        ancestors = set()
        while parent is not None:
            ancestors.add(by_id[parent][2])
            parent = by_id[parent][1]
        records.append(SpanRecord(name, end - start, end - start - child_time[span_id], frozenset(ancestors)))
    return records


def summary(spans) -> dict[str, dict[str, float]]:
    """Per span name, the median over ops of its total inclusive and self time."""
    per_op: dict[str, dict[int, list[float]]] = defaultdict(dict)
    for op in sorted({s[3] for s in spans}):
        for r in span_records(spans, op):
            total = per_op[r.name].setdefault(op, [0.0, 0.0])
            total[0] += r.incl
            total[1] += r.self
    return {
        name: {
            "incl_s": statistics.median(t[0] for t in ops.values()),
            "self_s": statistics.median(t[1] for t in ops.values()),
        }
        for name, ops in sorted(per_op.items())
    }


def root_time(spans) -> float:
    """Total duration of the spans that have no parent."""
    return sum(end - start for _, parent, _, _, start, end in spans if parent is None)
