"""In-memory spans, self time, and per-name totals.

A span is one call into a layer: its name, start and end (perf_counter
seconds) and the span that was open when it started.  A span's self time is
its duration minus the part of that interval its child spans cover.

This module imports nothing beyond the standard library, so the traced
child can load it without shifting the cost of importing numpy out of the
measured `import haarq.cli`.
"""

import functools
import os
import time
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span, None at the top
    bytes: int | None = None  # size of the file the call wrote, if any


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    reach = lo
    for a, b in sorted(intervals):
        a = max(a, reach)
        b = min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans: list[Span]) -> list[float]:
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return [
        (s.end - s.start) - covered(children.get(i, ()), s.start, s.end)
        for i, s in enumerate(spans)
    ]


def totals_by_name(spans: list[Span]) -> dict[str, dict]:
    """Per span name: summed duration `s`, summed `self_s`, `calls`, `bytes`."""
    out: dict[str, dict] = {}
    for s, own in zip(spans, self_times(spans)):
        t = out.setdefault(s.name, {"s": 0.0, "self_s": 0.0, "calls": 0, "bytes": 0})
        t["s"] += s.end - s.start
        t["self_s"] += own
        t["calls"] += 1
        t["bytes"] += s.bytes or 0
    return out


class Tracer:
    """Records a span around every call of the functions it wraps."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn, path_arg: int | None = None):
        """Wrap fn; if path_arg is given, that positional argument is the
        path the call writes, and its size is recorded after the span ends."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._open[-1] if self._open else None
            span = Span(name, time.perf_counter(), 0.0, parent)
            self._open.append(len(self.spans))
            self.spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._open.pop()
                if path_arg is not None and len(args) > path_arg:
                    path = str(args[path_arg])
                    if path != "-" and os.path.exists(path):
                        span.bytes = os.path.getsize(path)

        return traced
