"""Spans around the benchmark's calls into qring's public functions.

A span is (name, start, end, parent); spans are kept in memory while the
workload runs and written once at the end.  Wrapping replaces a module
attribute, so it sees exactly the calls that look the name up in that
module at call time (a module that imported the function by name keeps
its own binding, which is wrapped separately when a metric needs it).
"""
from __future__ import annotations

import contextlib
import gzip
import json
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, module, attr: str, name: str | None, on_return=None):
        """Replace ``module.attr`` by a wrapper recording a span called ``name``
        (no span when ``name`` is None) and calling
        ``on_return(counts, args, result)`` after each successful call."""
        original = getattr(module, attr)
        counts = self.counts

        def wrapper(*args, **kwargs):
            idx = self._open(name) if name else None
            try:
                result = original(*args, **kwargs)
            finally:
                if idx is not None:
                    self._close(idx)
            if on_return is not None:
                on_return(counts, args, result)
            return result

        setattr(module, attr, wrapper)
        self._restore.append((module, attr, original))

    def unwrap(self):
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def reduce(self) -> dict[str, dict[str, float]]:
        """Per span name: number of calls, inclusive seconds and self seconds
        (inclusive minus the time covered by its child spans)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "inclusive": 0.0, "self": 0.0})
        for i, (name, start, end, _) in enumerate(self.spans):
            rec = out[name]
            rec["calls"] += 1
            rec["inclusive"] += end - start
            rec["self"] += end - start - child[i]
        return dict(out)

    def write(self, path, header: dict):
        """Write every span (times in ns from the first span) plus counts, once."""
        t0 = self.spans[0][1] if self.spans else 0.0
        payload = dict(header)
        payload["counts"] = dict(self.counts)
        payload["summary"] = self.reduce()
        payload["span_fields"] = ["name", "start_ns", "end_ns", "parent"]
        payload["spans"] = [
            [name, round((start - t0) * 1e9), round((end - t0) * 1e9), parent]
            for name, start, end, parent in self.spans
        ]
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(payload, fh)

