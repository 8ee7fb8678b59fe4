"""In-memory spans around the benchmark's calls into monoref's layers.

A span has a name (`layer.call`), the id of the operation it belongs to,
start and end times from `time.perf_counter`, the index of its parent
span and a dict of attributes. Spans are kept in memory and summarised
when the run ends. Self time is a span's duration minus the durations of
its children.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from contextlib import contextmanager, nullcontext


class Span:
    __slots__ = ("name", "op", "start", "end", "parent", "attrs")

    def __init__(self, name: str, op: int, parent: int | None):
        self.name = name
        self.op = op
        self.start = time.perf_counter()
        self.end = self.start
        self.parent = parent
        self.attrs: dict = {}

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans; `span` yields the span's attribute dict."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, op: int):
        parent = self._open[-1] if self._open else None
        record = Span(name, op, parent)
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record.attrs
        finally:
            record.end = time.perf_counter()
            self._open.pop()

    def self_times(self, root: str) -> tuple[dict[str, float], float]:
        """Seconds of self time per layer within the trees whose root span
        is named `root`, and the roots' total seconds."""
        ops = {s.op for s in self.spans if s.parent is None and s.name == root}
        children = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                children[s.parent] += s.duration
        out: Counter = Counter()
        total = 0.0
        for i, s in enumerate(self.spans):
            if s.op in ops:
                out[s.layer] += s.duration - children[i]
                total += s.duration if s.parent is None else 0.0
        return dict(out), total

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]


class NoTracer:
    """Stands in for a Tracer in untraced rounds at the cost of one call."""

    _sink: dict = {}

    def span(self, name: str, op: int):
        return nullcontext(self._sink)


class RuleCounter:
    """`trace=` hook for `run`/`run_g`: rule counts and heap/worklist peaks."""

    def __init__(self):
        self.rules: Counter = Counter()
        self.steps = 0
        self.peak_heap = 0
        self.peak_worklist = 0

    def __call__(self, record) -> None:
        self.rules[record.rule] += 1
        self.steps += 1
        if record.heap_size > self.peak_heap:
            self.peak_heap = record.heap_size
        if record.active_len > self.peak_worklist:
            self.peak_worklist = record.active_len
