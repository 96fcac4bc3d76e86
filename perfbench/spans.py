"""Spans for the traced benchmark run.

A span records its name, start, end, parent span and request id.  The
spans of one request stay in memory until its root span closes; they
are then folded into per-name busy time (self time: the span's duration
minus the time its child spans cover) and call counts, so memory stays
bounded however long the run is.  The folding itself is timed as the
pseudo-span `trace.fold`, so the self times of all spans add up to the
time the root spans and the folds took.

Spans come from the benchmark's own code: explicit `begin`/`end` pairs
around its own phases, and wrappers that `patched` installs around the
layer functions a workload calls, directly or through another layer.
Nothing under the program's source tree is edited; the wrappers are
module or class attributes swapped for the duration of the run.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager


class NullTracer:
    """Tracing switched off: spans cost one no-op call each."""

    enabled = False

    def begin(self, name: str) -> int:
        return -1

    def end(self, idx: int) -> None:
        pass

    def take(self) -> tuple[dict[str, float], dict[str, int]]:
        return {}, {}


class Tracer:
    enabled = True

    def __init__(self) -> None:
        self.request = None
        self.spans: list[list] = []      # [name, start, end, parent, request]
        self._stack: list[int] = []
        self.busy: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent,
                           self.request])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        if self._stack.pop() != idx:
            raise RuntimeError(f"span {self.spans[idx][0]} closed out of order")
        if not self._stack:
            t0 = time.perf_counter()
            self._fold()
            # folding is the tracer's own cost between requests
            self.busy["trace.fold"] += time.perf_counter() - t0
            self.calls["trace.fold"] += 1

    def _fold(self) -> None:
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        for (name, start, end, _, _), covered in zip(spans, child):
            self.busy[name] += end - start - covered
            self.calls[name] += 1
        spans.clear()

    def take(self) -> tuple[dict[str, float], dict[str, int]]:
        """Busy seconds and calls per span name since the previous take;
        the tallies restart at zero."""
        out = (dict(self.busy), dict(self.calls))
        self.busy.clear()
        self.calls.clear()
        return out


def _wrap(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = tracer.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.end(idx)
    return traced


@contextmanager
def patched(tracer, targets):
    """Wrap each `(owner, attribute, span name)` in a span while the block
    runs; a disabled tracer patches nothing."""
    saved = []
    try:
        if tracer.enabled:
            for owner, attr, name in targets:
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, _wrap(tracer, name, original))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
