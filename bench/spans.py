"""In-memory spans around the benchmark's calls into weylcyc.

A span is (name, start_ns, end_ns, parent, op): the parent is the index of
the enclosing span, the op identifies the operation the call served.  Spans
are kept in a list and written out once, when the run ends.
"""

from __future__ import annotations

import json
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter_ns


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self.op = None

    def _open(self):
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(index)
        return index, parent, perf_counter_ns()

    def _close(self, name, index, parent, start):
        end = perf_counter_ns()
        self._stack.pop()
        self.spans[index] = (name, start, end, parent, self.op)

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            index, parent, start = self._open()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(name, index, parent, start)

        return traced

    @contextmanager
    def operation(self, op):
        """One span named "bench.op" around everything done for operation `op`."""
        self.op = op
        index, parent, start = self._open()
        try:
            yield
        finally:
            self._close("bench.op", index, parent, start)
            self.op = None

    def self_times(self) -> dict:
        """{op: {name: self time in ns}}, a span's self time being its length
        less the part its children cover."""
        child = [0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: dict = defaultdict(lambda: defaultdict(int))
        for (name, start, end, parent, op), covered in zip(self.spans, child):
            out[op][name] += end - start - covered
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "op"], "spans": self.spans}, fh)


def self_ms(self_times: dict, ops, names) -> list[tuple]:
    """(key, self time in ms in `names`) for each (op, key) in `ops` whose
    operation called any of `names`."""
    return [
        (key, sum(self_times[op][n] for n in names) / 1e6)
        for op, key in ops
        if any(n in self_times[op] for n in names)
    ]
