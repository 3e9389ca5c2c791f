"""In-memory span recorder for the traced run.

A span is a dict with ``id``, ``name``, ``start``, ``end`` (``time.perf_counter``
seconds, which share one clock across processes on Linux), ``parent`` (the id
of the enclosing span or None) and ``op`` (the workload operation it belongs
to). Spans stay in memory and are written once, when the run ends.
"""

import json
import time
from contextlib import contextmanager, nullcontext


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = None
        self._open = []

    @contextmanager
    def span(self, name):
        rec = {"id": len(self.spans), "name": name, "start": time.perf_counter(), "end": None,
               "parent": self._open[-1] if self._open else None, "op": self.op}
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def adopt(self, spans):
        """Append spans recorded by another tracer (the eval worker's), re-rooted
        under the currently open span and tagged with the current operation."""
        base = len(self.spans)
        root = self._open[-1] if self._open else None
        for s in spans:
            parent = root if s["parent"] is None else s["parent"] + base
            self.spans.append(dict(s, id=s["id"] + base, parent=parent, op=self.op))

    def write(self, path):
        with open(path, "w", encoding="ascii") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


class NullTracer:
    """Stands in for a Tracer where nothing is recorded (untraced set-up)."""

    op = None

    def span(self, name):
        return nullcontext()


def durations(spans, name=None, prefix=None):
    """Durations in ms of the spans called ``name`` or starting with ``prefix``."""
    return [1e3 * (s["end"] - s["start"]) for s in spans
            if (name is not None and s["name"] == name)
            or (prefix is not None and s["name"].startswith(prefix))]


def total_ms(spans, name=None, prefix=None):
    return sum(durations(spans, name, prefix))
