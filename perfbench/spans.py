"""In-memory spans around layer calls, and the order statistics the benchmark reports.

A span is (name, start, end, parent index, op id).  Spans are recorded by the
benchmark around its own calls into decaylab, kept in a list while the run
goes on and written out once at the end.  A disabled tracer hands out one
shared no-op context, so traced and untraced runs execute the same code.
"""

from __future__ import annotations

import json
import math
import statistics
import time
from pathlib import Path


class _NullSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL = _NullSpan()


class _Span:
    __slots__ = ("tracer", "index")

    def __init__(self, tracer: "Tracer", index: int):
        self.tracer = tracer
        self.index = index

    def __enter__(self):
        self.tracer.spans[self.index][1] = time.perf_counter()
        return self

    def __exit__(self, *exc):
        tracer = self.tracer
        tracer.spans[self.index][2] = time.perf_counter()
        tracer._stack.pop()
        return False


class Tracer:
    """Collects spans while enabled; the run toggles ``enabled`` per block of ops."""

    def __init__(self, enabled: bool = False):
        self.enabled = enabled
        self.spans: list[list] = []  # [name, start, end, parent, op]
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []

    def count(self, name: str, k: int = 1) -> None:
        if self.enabled:
            self.counts[name] = self.counts.get(name, 0) + k

    def span(self, name: str, op: int | None = None):
        if not self.enabled:
            return _NULL
        parent = self._stack[-1] if self._stack else None
        if op is None and parent is not None:
            op = self.spans[parent][4]
        index = len(self.spans)
        self.spans.append([name, 0.0, 0.0, parent, op])
        self._stack.append(index)
        return _Span(self, index)

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover.

        Children of one span run one after another, so their durations add.
        """
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                own[parent] -= end - start
        return own

    def durations(self, name: str) -> list[float]:
        """Durations of the ``name`` spans recorded outside any op."""
        return [end - start for n, start, end, _, op in self.spans if n == name and op is None]

    def coverage(self, root: str) -> tuple[float, float]:
        """Share of the time of ``root`` spans that their child spans cover,
        with the base (total seconds of ``root`` spans)."""
        own = self.self_times()
        total = covered = 0.0
        for i, (name, start, end, _, _) in enumerate(self.spans):
            if name == root:
                total += end - start
                covered += (end - start) - own[i]
        return (covered / total if total else 0.0), total

    def dump(self, path: Path) -> None:
        own = self.self_times()
        records = [
            {
                "name": name,
                "start": start,
                "end": end,
                "parent": parent,
                "op": op,
                "self": own[i],
            }
            for i, (name, start, end, parent, op) in enumerate(self.spans)
        ]
        path.write_text(json.dumps(records))


def tail(values: list[float]) -> tuple[float, float]:
    """Value at the highest percentile that still has at least ten samples
    beyond it, with that percentile (nearest rank), kept within [50, 99].

    The upper clamp keeps runs of thousands of short ops off their few
    slowest samples, which single scheduler hiccups decide.  Below 20
    samples no percentile from 50 up has ten samples beyond it; the lower
    clamp then reports the median rather than a value that jumps between
    the maximum and the minimum as the sample count changes."""
    ordered = sorted(values)
    n = len(ordered)
    percentile = min(99.0, max(50.0, 100.0 * (n - 10) / n))
    rank = max(1, math.ceil(percentile / 100.0 * n - 1e-9))
    return ordered[rank - 1], 100.0 * rank / n


def median(values: list[float]) -> float:
    return statistics.median(values) if values else math.nan
