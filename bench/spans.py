"""In-memory spans around the benchmark's calls into the program.

A span is ``(id, name, start, end, parent)`` with times from
``time.perf_counter``.  Its layer is the part of its name before the
first dot (``predict.simple_krige`` is in ``predict``); spans the
benchmark opens for itself (rounds, operations) are in ``bench``.
"""

import contextlib
import json
import time
from collections import defaultdict

_NO_SPAN = contextlib.nullcontext()


class NullTracer:
    """Tracing off: ``span`` costs one method call."""

    def span(self, name):
        return _NO_SPAN


class Tracer:
    """Records every span in memory; write them out with :meth:`dump`."""

    def __init__(self):
        self.spans = []
        self._open = []

    @contextlib.contextmanager
    def span(self, name):
        record = [len(self.spans), name, time.perf_counter(), None,
                  self._open[-1] if self._open else None]
        self.spans.append(record)
        self._open.append(record[0])
        try:
            yield
        finally:
            self._open.pop()
            record[3] = time.perf_counter()

    def durations(self, name):
        return [s[3] - s[2] for s in self.spans if s[1] == name]

    def self_times(self, roots):
        """Self time per layer, summed over the trees under ``roots``.

        A span's self time is its duration minus its children's; the
        children of one span run one after another, never overlapping.
        """
        children = defaultdict(float)
        for s in self.spans:
            if s[4] is not None:
                children[s[4]] += s[3] - s[2]
        inside = set(roots)
        totals = defaultdict(float)
        for s in self.spans:
            if s[0] in inside or s[4] in inside:
                inside.add(s[0])
                totals[layer(s[1])] += (s[3] - s[2]) - children[s[0]]
        return dict(totals)

    def dump(self, path):
        keys = ("id", "name", "start", "end", "parent")
        path.write_text(json.dumps([dict(zip(keys, s)) for s in self.spans]))


def span_cost(count=20_000):
    """Seconds one span adds to the traced code, measured on a scratch tracer."""
    scratch = Tracer()
    t0 = time.perf_counter()
    for _ in range(count):
        with scratch.span("calibrate"):
            pass
    return (time.perf_counter() - t0) / count


def layer(name):
    head, dot, _ = name.partition(".")
    return head if dot and ":" not in head else "bench"
