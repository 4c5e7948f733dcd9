"""In-memory spans around lrdetect's public functions, recorded from outside the package.

A ``Tracer`` wraps each traced function under every name that an lrdetect
module binds it to, so calls made inside the package (``run_study`` calling
``simulate_fgn``, ``variance_plot_slope`` calling ``block_mean_variances``)
are recorded as well as calls made by the benchmark.  A span is
``(name, start, end, parent)``: ``parent`` indexes the enclosing span, or is
-1.  Spans are recorded in the driving process only; no workload uses the
study's process pool.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

# (module, function) pairs that become layer spans named "<module>.<function>".
TRACED = (
    ("fgn", "simulate_fgn"),
    ("fgn", "subordinate"),
    ("excursion", "resolve_quantiles"),
    ("excursion", "transform_series"),
    ("varplot", "block_mean_variances"),
    ("varplot", "variance_plot_slope"),
    ("gph", "full_ordinates"),
    ("gph", "gph_estimate"),
    ("series", "read_series_csv"),
    ("series", "write_series_csv"),
    ("study", "run_study"),
    ("study", "write_study_outputs"),
)


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, time.perf_counter(), 0.0, parent))
        self._stack.append(index)
        return index

    def _end(self, index: int) -> None:
        self._stack.pop()
        name, start, _, parent = self.spans[index]
        self.spans[index] = (name, start, time.perf_counter(), parent)

    @contextmanager
    def span(self, name: str):
        index = self._begin(name)
        try:
            yield
        finally:
            self._end(index)

    def _wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end(index)
            if name == "series.write_series_csv":
                self.counts["series.csv_bytes"] += Path(result).stat().st_size
            return result

        return traced

    @contextmanager
    def recording(self):
        """Trace one operation: rebind every lrdetect binding of each TRACED function."""
        self.spans, self._stack, self.counts = [], [], Counter()
        modules = [m for key, m in list(sys.modules.items()) if key.split(".")[0] == "lrdetect"]
        for module_name, fn_name in TRACED:
            original = getattr(sys.modules[f"lrdetect.{module_name}"], fn_name)
            wrapper = self._wrap(original, f"{module_name}.{fn_name}")
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, attr, value))
                        setattr(module, attr, wrapper)
        try:
            yield self
        finally:
            for module, attr, value in reversed(self._patched):
                setattr(module, attr, value)
            self._patched.clear()


def layer_totals(spans) -> dict[str, dict[str, float]]:
    """Per span name: calls, busy seconds and self seconds.

    Self time is a span's duration minus the durations of its direct children;
    spans nest, so the children never overlap.
    """
    child_time = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals: dict[str, dict[str, float]] = {}
    for (name, start, end, _), children in zip(spans, child_time):
        entry = totals.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["busy_s"] += end - start
        entry["self_s"] += end - start - children
    return totals


def top_level_seconds(spans) -> float:
    """Time covered by the outermost spans."""
    return sum(end - start for _, start, end, parent in spans if parent < 0)


def span_cost_s(calls: int = 100_000) -> float:
    """Seconds one traced call adds: a wrapped no-op minus the bare no-op."""

    def noop():
        return None

    wrapped = Tracer()._wrap(noop, "noop")
    times = []
    for fn in (noop, wrapped):
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        times.append(time.perf_counter() - start)
    return max(times[1] - times[0], 0.0) / calls
