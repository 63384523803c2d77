"""Span recorder and the statistics the benchmark reports.

Spans are taken from outside the program: the benchmark wraps every call it
makes into a microflow public function, so a span's name is
``<module>.<function>``. Calls run inside stage spans (one step of a
workload pass), and all spans of one pass or set-up share its run id. Spans
stay in memory and are written out when the benchmark ends.

Only the standard library is used here, so the helpers can be tested without
numpy.
"""

import math
import statistics
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import asdict, dataclass


@dataclass
class Span:
    """One timed interval.

    name is ``<module>.<function>`` for a call and ``stage:<step>`` for a
    stage; parent is the index of the enclosing stage span, if any.
    peak_alloc is the tracemalloc peak of a call above its starting level,
    in bytes (0 for stages).
    """

    name: str
    start: float
    end: float
    parent: int | None
    run_id: str
    peak_alloc: int = 0

    @property
    def seconds(self):
        return self.end - self.start


class Tracer:
    """Routes the benchmark's calls into the program.

    With ``enabled`` false a call costs one extra Python frame and records
    nothing; the end-to-end figures come from such runs. With ``enabled`` true
    every call and stage leaves a span, and calls also record their
    tracemalloc peak, which the caller must have started.
    """

    def __init__(self, enabled):
        self.enabled = enabled
        self.spans = []
        self.calls = 0
        self.run_id = ""
        self._stage = None

    @contextmanager
    def stage(self, name):
        if not self.enabled:
            yield
            return
        index = len(self.spans)
        span = Span(f"stage:{name}", time.perf_counter(), 0.0, self._stage, self.run_id)
        self.spans.append(span)
        outer, self._stage = self._stage, index
        try:
            yield
        finally:
            span.end = time.perf_counter()
            self._stage = outer

    def call(self, name, fn, *args, **kwargs):
        """Call fn(*args, **kwargs) as the public function ``name``."""
        self.calls += 1
        if not self.enabled:
            return fn(*args, **kwargs)
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            peak = tracemalloc.get_traced_memory()[1] - base
            self.spans.append(Span(name, start, end, self._stage, self.run_id, max(peak, 0)))

    def dump(self):
        return [asdict(s) for s in self.spans]


def self_times(spans):
    """Each span's duration minus the part of it that its children cover.

    Children may overlap one another; their union is subtracted once, clipped
    to the parent's interval.
    """
    children = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out = []
    for index, span in enumerate(spans):
        covered = 0.0
        cursor = span.start
        for child in sorted(children.get(index, []), key=lambda c: c.start):
            lo = max(child.start, cursor)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(span.seconds - covered)
    return out


def tail(samples):
    """Highest percentile with at least ten samples beyond it.

    Returns (percentile, value), where value is the sample of rank n - 10 in
    ascending order, or None when there are ten samples or fewer.
    """
    n = len(samples)
    if n <= 10:
        return None
    rank = n - 10
    return 100.0 * rank / n, sorted(samples)[rank - 1]


def median(samples):
    return statistics.median(samples) if samples else math.nan
