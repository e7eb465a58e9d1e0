"""In-memory span tracer for the benchmark's traced run.

The tracer wraps public functions of the potsim modules at the name their
caller looks up (``potsim.descriptors.farneback_flow`` is the name
``compute_series`` calls), so nothing inside the program changes. A span
is recorded per call: name, start, end, parent span and trace id. A
counter-only wrapper serves functions called hundreds of thousands of
times, where one span per call would cost more memory than it tells.
Spans stay in memory and are written out once, at the end.
"""

from __future__ import annotations

import functools
import gzip
import json
import re
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root span
    trace: str


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._open: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def call(self, name: str, fn: Callable, *args, trace: str | None = None,
             on_result: Callable | None = None, **kwargs):
        """Run ``fn`` inside a span; a new ``trace`` id overrides the parent's."""
        parent = self._open[-1] if self._open else -1
        if trace is None:
            trace = self.spans[parent].trace if parent >= 0 else ""
        index = len(self.spans)
        span = Span(name, time.perf_counter(), 0.0, parent, trace)
        self.spans.append(span)
        self._open.append(index)
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._open.pop()
        if on_result is not None:
            for counter, amount in on_result(result, *args).items():
                self.counters[f"{name}.{counter}"] += amount
        return result

    def wrap_span(self, module, attr: str, name: str, trace_of: Callable | None = None,
                  on_result: Callable | None = None) -> None:
        """Replace ``module.attr`` with a spanning wrapper until ``restore``.

        ``trace_of(*args)`` starts a new trace id at this span;
        ``on_result(result, *args)`` returns extra counter increments.
        """
        original = getattr(module, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            trace = trace_of(*args) if trace_of is not None else None
            return self.call(name, original, *args, trace=trace, on_result=on_result, **kwargs)

        self._patch(module, attr, wrapper)

    def wrap_count(self, module, attr: str, name: str) -> None:
        """Replace ``module.attr`` with a wrapper that only counts calls."""
        original = getattr(module, attr)
        counters = self.counters
        key = name + ".calls"

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            counters[key] += 1
            return original(*args, **kwargs)

        self._patch(module, attr, wrapper)

    def _patch(self, module, attr: str, wrapper) -> None:
        self._patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def restore(self) -> None:
        """Put back every wrapped function, last patch first."""
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def self_times(self) -> list[float]:
        """Per span: its duration minus the part its child spans cover."""
        children: dict[int, list[int]] = defaultdict(list)
        for index, span in enumerate(self.spans):
            if span.parent >= 0:
                children[span.parent].append(index)
        return [
            span_self_time(span, [self.spans[c] for c in children[index]])
            for index, span in enumerate(self.spans)
        ]

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds."""
        totals: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        )
        for span, own in zip(self.spans, self.self_times()):
            entry = totals[span.name]
            entry["calls"] += 1
            entry["total_s"] += span.end - span.start
            entry["self_s"] += own
        return totals

    def dump(self, path: Path) -> None:
        """Write all spans as gzipped JSON, times relative to the first span."""
        origin = self.spans[0].start if self.spans else 0.0
        payload = {
            "fields": ["name", "start_s", "end_s", "parent", "trace"],
            "spans": [
                [s.name, round(s.start - origin, 9), round(s.end - origin, 9), s.parent, s.trace]
                for s in self.spans
            ],
            "counters": dict(self.counters),
        }
        with gzip.open(path, "wt") as fh:
            json.dump(payload, fh, separators=(",", ":"))


def span_self_time(span: Span, children: list[Span]) -> float:
    """``span``'s duration minus the union of its children's intervals,
    each clipped to the span."""
    covered = 0.0
    reach = span.start
    for child in sorted(children, key=lambda c: c.start):
        lo = max(child.start, reach)
        hi = min(child.end, span.end)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return (span.end - span.start) - covered


def check_metric_names(names) -> None:
    bad = [name for name in names if not METRIC_NAME.fullmatch(name)]
    if bad:
        raise ValueError(f"metric names outside [A-Za-z0-9_.-]+: {bad}")
