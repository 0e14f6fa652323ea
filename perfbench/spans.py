"""In-memory spans recorded around vpmerge's public functions.

The benchmark does not edit the package: it replaces functions at the
module attributes where callers look them up (``vpmerge.cli.load_dataset``,
``vpmerge.merger.conditional_fluctuation``, ``TrajectorySweep.snapshot``
...) with wrappers that record a span, and puts the originals back
afterwards.  A span is ``[name, start_ns, end_ns, parent, job, info]``;
``info`` is whatever the target's hook extracts from the call (file size,
matrix size, cache key).  Spans stay in memory until the run ends.

A span's self time is its duration minus the durations of its direct
children (calls are single-threaded and nested, so children never
overlap).  The layer of a span is the part of its name before the dot.
"""

from __future__ import annotations

import functools
from collections import Counter, defaultdict
from time import perf_counter_ns

NAME, START, END, PARENT, JOB, INFO = range(6)


class Tracer:
    """Patches targets while installed; collects spans and call counts."""

    def __init__(self, targets, counters=()):
        self.targets = list(targets)    # (owner, attr, span name, info hook)
        self.counter_targets = list(counters)  # (owner, attr, counter name)
        self.spans: list = []
        self.counts: Counter = Counter()
        self.job = None
        self.missing: list = []
        self._stack: list = []
        self._saved: list = []

    def _span_wrapper(self, name, fn, hook):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0, 0, stack[-1] if stack else -1, self.job, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[END] = perf_counter_ns()
                stack.pop()
            if hook is not None:
                rec[INFO] = hook(args, kwargs, out)
            return out

        return traced

    def _count_wrapper(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        self.missing = []
        for owner, attr, name, hook in self.targets:
            self._patch(owner, attr, lambda fn: self._span_wrapper(name, fn, hook))
        for owner, attr, name in self.counter_targets:
            self._patch(owner, attr, lambda fn: self._count_wrapper(name, fn))

    def _patch(self, owner, attr, make) -> None:
        # vars(), not getattr: a method must be re-set on its own class
        if attr not in vars(owner):
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        original = vars(owner)[attr]
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def self_times(spans, base: int = 0) -> list:
    """Self time in seconds of each span, in span order.

    ``spans`` may be a slice of the tracer's list that starts at index
    ``base`` and holds only whole trees (one or more complete passes).
    """
    own = [(s[END] - s[START]) for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT] - base] -= s[END] - s[START]
    return [v / 1e9 for v in own]


def summarize(spans, base: int = 0) -> dict:
    """Per span name: calls, total self seconds, and the list of infos."""
    out = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "infos": []})
    for s, own in zip(spans, self_times(spans, base)):
        entry = out[s[NAME]]
        entry["calls"] += 1
        entry["self_s"] += own
        if s[INFO] is not None:
            entry["infos"].append((s[JOB], s[INFO]))
    return dict(out)
