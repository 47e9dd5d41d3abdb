"""In-memory spans for the traced run.

A span records its name, start, end, the span that encloses it and the
operation it belongs to, plus counts of the work done inside it. Spans are
kept in memory and written out once the run ends; self time is derived
afterwards from the children, so recording a span costs two clock reads
and one dict.
"""

from __future__ import annotations

import time
from contextlib import contextmanager


class Tracer:
    enabled = True

    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []

    @contextmanager
    def span(self, name, **counts):
        """Time the enclosed block; the yielded dict takes counts for the span."""
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "op": self.op,
            "counts": counts,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        rec["start"] = time.perf_counter()
        try:
            yield counts
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()


class _NullSpan:
    def __enter__(self):
        return {}

    def __exit__(self, *exc):
        return False


class NullTracer:
    """Stands in for a Tracer in untraced runs; records nothing."""

    enabled = False
    op = None

    def span(self, name, **counts):
        return _NullSpan()


NULL = NullTracer()


def with_self_times(spans):
    """Add each span's duration and self time (duration minus its children's)."""
    child_time = {}
    for s in spans:
        s["dur"] = s["end"] - s["start"]
        if s["parent"] is not None:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + s["dur"]
    for s in spans:
        s["self"] = s["dur"] - child_time.get(s["id"], 0.0)
    return spans


def summarize(spans):
    """Per span name: calls, busy_s (sum of durations), self_s and the counts.

    Counts are summed, except those whose key ends in ``_max``.
    """
    out = {}
    for s in with_self_times(spans):
        agg = out.setdefault(s["name"], {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        agg["calls"] += 1
        agg["busy_s"] += s["dur"]
        agg["self_s"] += s["self"]
        for key, value in s["counts"].items():
            if key.endswith("_max"):
                agg[key] = max(agg.get(key, value), value)
            else:
                agg[key] = agg.get(key, 0) + value
    return out
