"""In-memory spans around the benchmark's calls into grcat.

A span has a name, a start, an end and a parent (the index of the span open
when it began, or -1).  Layer spans are named "<module>.<function>" and
carry the group they ran on and a work count (cells, quadruples,
candidates) used for rates.  Nothing is recorded while the tracer is
disabled, so an untraced run pays one extra Python call per grcat call.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

NAME, START, END, PARENT, WORK, GROUP, ROUND = range(7)


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.round = 0
        self.spans = []
        self._open = []

    def call(self, name, fn, *args, work=0, group=None):
        """fn(*args), inside a span when tracing."""
        if not self.enabled:
            return fn(*args)
        with self.span(name, work, group):
            return fn(*args)

    @contextmanager
    def span(self, name, work=0, group=None):
        if not self.enabled:
            yield
            return
        rec = [name, 0.0, 0.0, self._open[-1] if self._open else -1, work, group,
               self.round]
        self._open.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = time.perf_counter()
        try:
            yield
        finally:
            rec[END] = time.perf_counter()
            self._open.pop()

    def self_times(self):
        """Each span's duration minus the time covered by its child spans."""
        out = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] >= 0:
                out[s[PARENT]] -= s[END] - s[START]
        return out

    def write(self, path):
        t0 = self.spans[0][START] if self.spans else 0.0
        doc = [{"name": s[NAME], "start_s": s[START] - t0, "end_s": s[END] - t0,
                "parent": s[PARENT], "self_s": self_s, "work": s[WORK],
                "group": list(s[GROUP]) if s[GROUP] else None, "round": s[ROUND]}
               for s, self_s in zip(self.spans, self.self_times())]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": doc}, fh)
