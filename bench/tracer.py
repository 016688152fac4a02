"""Spans around the benchmark's calls into the program, kept in memory.

A span is ``(span_id, name, start, end, parent_id, op_id)`` with times from
``time.perf_counter`` (CLOCK_MONOTONIC on Linux, so a CLI child's own
timestamps line up with the parent's).  The untraced recorder keeps the
same interface and records nothing, so end-to-end numbers are measured
without span bookkeeping.
"""

from __future__ import annotations

import json
import statistics
from time import perf_counter

# Layer names whose p50 is reported in milliseconds; every other layer in microseconds.
MS_LAYERS = ("interpreter.process", "cli.import", "cli.main")
MODULES = ("bench", "interpreter", "cli", "documents", "accounts", "metrics", "valuemap", "scenarios", "render")


class NullTracer:
    enabled = False

    def begin_op(self, op_id: int) -> None:
        pass

    def end_op(self) -> None:
        pass

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def add(self, name: str, start: float, end: float, parent: int | None = None) -> int:
        return 0

    def note_steps(self, steps: int) -> None:
        pass


class Tracer(NullTracer):
    enabled = True

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.steps: dict[int, int] = {}  # op id -> steps of its successful apply_scenario
        self._op_span: int | None = None
        self._op_id: int | None = None
        self._op_start = 0.0

    def begin_op(self, op_id: int) -> None:
        self._op_id = op_id
        self._op_span = len(self.spans)
        self.spans.append(None)  # filled in by end_op, so children can name it as parent
        self._op_start = perf_counter()

    def end_op(self) -> None:
        self.spans[self._op_span] = (self._op_span, "bench.op", self._op_start, perf_counter(), None, self._op_id)
        self._op_span = None

    def call(self, name, fn, *args, **kwargs):
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans.append((len(self.spans), name, start, perf_counter(), self._op_span, self._op_id))

    def add(self, name: str, start: float, end: float, parent: int | None = None) -> int:
        """Record a span measured elsewhere (e.g. inside a CLI child)."""
        span_id = len(self.spans)
        parent = self._op_span if parent is None else parent
        self.spans.append((span_id, name, start, end, parent, self._op_id))
        return span_id

    def note_steps(self, steps: int) -> None:
        self.steps[self._op_id] = steps

    def us_per_step(self) -> list[float]:
        """Duration of each successful apply_scenario divided by its step count."""
        return [
            (span[3] - span[2]) * 1e6 / self.steps[span[5]]
            for span in self.spans
            if span[1] == "scenarios.apply_scenario" and self.steps.get(span[5])
        ]

    def layer_stats(self) -> dict[str, dict]:
        """Per call name: count, busy seconds and median duration."""
        durations: dict[str, list[float]] = {}
        for span in self.spans:
            durations.setdefault(span[1], []).append(span[3] - span[2])
        return {
            name: {"count": len(d), "busy_s": sum(d), "p50_s": statistics.median(d)}
            for name, d in durations.items()
        }

    def self_seconds(self) -> dict[str, float]:
        """Self time per module: span duration minus what its children cover."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span[4] is not None:
                child_time[span[4]] += span[3] - span[2]
        out = dict.fromkeys(MODULES, 0.0)
        for span in self.spans:
            module = span[1].split(".", 1)[0]
            out[module] = out.get(module, 0.0) + (span[3] - span[2]) - child_time[span[0]]
        return out

    def write(self, path, origin: float) -> None:
        """Write the spans as JSON, times in microseconds from ``origin``."""
        rows = [
            [sid, name, round((s - origin) * 1e6, 1), round((e - origin) * 1e6, 1), parent, op]
            for sid, name, s, e, parent, op in self.spans
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": ["id", "name", "start_us", "end_us", "parent", "op"], "spans": rows}, handle)
