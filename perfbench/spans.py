"""Timing of calls into krawlp, with optional span recording.

Every call the benchmark makes into the library goes through
``Recorder.call``.  Untraced, it only adds the call's duration to the
pass's busy time.  Traced, it also records a span: name, start, end,
parent span and workload item id.  Spans stay in memory until the run
ends; ``self_times`` turns them into per-layer self time, which is a
span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import time
from collections import defaultdict


class Recorder:
    def __init__(self) -> None:
        # (name, start, end, parent index, item id, pass); a span is a
        # placeholder until its call returns.
        self.spans: list[tuple] = []
        self.tracing = False
        self.item = None
        self.pass_index = 0
        self.busy = 0.0  # seconds inside top-level calls in the current pass
        self._stack: list[int] = []

    def start_pass(self, index: int, tracing: bool) -> None:
        self.pass_index = index
        self.tracing = tracing
        self.busy = 0.0
        self._stack.clear()

    def call(self, name: str, fn, *args):
        """Run ``fn(*args)`` as one timed call into the library."""
        idx = -1
        if self.tracing:
            parent = self._stack[-1] if self._stack else -1
            idx = len(self.spans)
            self.spans.append((name, 0.0, 0.0, parent, self.item, self.pass_index))
        self._stack.append(idx)
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            if not self._stack:
                self.busy += t1 - t0
            if idx >= 0:
                name, _, _, parent, item, p = self.spans[idx]
                self.spans[idx] = (name, t0, t1, parent, item, p)

    def traced(self, name_of, fn):
        """Wrap ``fn`` so that each call made by library code is a span.

        ``name_of(*args)`` names the span.  Used to see the suite and oracle
        calls that ``krawlp.cli.main`` makes, during traced passes only.
        """

        def wrapper(*args, **kwargs):
            return self.call(name_of(*args, **kwargs), lambda: fn(*args, **kwargs))

        return wrapper


def self_times(spans: list[tuple], pass_index: int) -> tuple[dict[str, float], dict[str, float]]:
    """Per-name self time and longest single duration over one pass's spans."""
    child_cover: dict[int, float] = defaultdict(float)
    for name, start, end, parent, _item, p in spans:
        if p == pass_index and parent >= 0:
            child_cover[parent] += end - start
    totals: dict[str, float] = defaultdict(float)
    longest: dict[str, float] = defaultdict(float)
    for idx, (name, start, end, _parent, _item, p) in enumerate(spans):
        if p != pass_index:
            continue
        totals[name] += (end - start) - child_cover.get(idx, 0.0)
        longest[name] = max(longest[name], end - start)
    return dict(totals), dict(longest)
