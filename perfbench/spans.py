"""In-memory spans for the traced run.

A span is ``(name, start, end, parent, op)``: ``parent`` is the index of
the enclosing span (-1 for none) and ``op`` the id shared by the spans of
one op.  Spans stay in memory and are written out once the run ends.
"""

from __future__ import annotations

import contextlib
import json
from collections import defaultdict
from pathlib import Path
from time import perf_counter

_OFF = contextlib.nullcontext()


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[tuple] = []
        self._open: list[int] = []

    def span(self, name: str, op: int):
        """A context manager recording one span; a no-op when disabled."""
        return self._record(name, op) if self.enabled else _OFF

    @contextlib.contextmanager
    def _record(self, name: str, op: int):
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append(None)
        self._open.append(index)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._open.pop()
            self.spans[index] = (name, start, end, parent, op)

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, each span's duration minus the part of
        it its child spans cover."""
        covered: dict[int, float] = defaultdict(float)
        for name, start, end, parent, op in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for index, (name, start, end, parent, op) in enumerate(self.spans):
            totals[name] += end - start - covered[index]
        return totals


def span_cost(samples: int = 20_000) -> float:
    """Seconds one recorded span costs over a disabled one, both empty;
    the best of three tries each."""

    def timed(enabled: bool) -> float:
        tracer = Tracer(enabled)
        start = perf_counter()
        for _ in range(samples):
            with tracer.span("probe", 0):
                pass
        return perf_counter() - start

    on = min(timed(True) for _ in range(3))
    off = min(timed(False) for _ in range(3))
    return max(0.0, on - off) / samples


def write_spans(path: Path, passes: list[list[tuple]]) -> None:
    """One JSON array per line: pass, name, start, end, parent, op."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        for k, spans in enumerate(passes):
            for span in spans:
                fh.write(json.dumps([k, *span]) + "\n")
