"""Driver-side spans: the ledger's own tracer.

The benchmark times the program *from outside*: every span here wraps a
call the driver makes into one layer's public function.  (Spans inside
the program — :mod:`repro.trace` — are deliberately not used; they are a
later issue's instrument and would change what is being measured.)

A span records a name, start, end, its parent and the id of the
operation it belongs to.  Spans stay in memory and are written once, at
exit, as Chrome ``trace_event`` JSON — open the file in Perfetto, or run
``python -m repro.trace validate`` on it.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager


class Span:
    __slots__ = ("name", "layer", "op", "parent", "start", "end", "children")

    def __init__(self, name: str, layer: str, op: int, parent):
        self.name = name
        self.layer = layer
        self.op = op
        self.parent = parent
        self.start = 0.0
        self.end = 0.0
        self.children: list[Span] = []

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        """Duration minus the part of it child spans cover."""
        return self.duration - sum(c.duration for c in self.children)


class Tracer:
    """Collects nested spans on one thread."""

    enabled = True

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self.op = 0

    @contextmanager
    def span(self, name: str, layer: str = ""):
        parent = self._stack[-1] if self._stack else None
        sp = Span(name, layer or name.split(".", 1)[0], self.op, parent)
        if parent is not None:
            parent.children.append(sp)
        self.spans.append(sp)
        self._stack.append(sp)
        sp.start = time.perf_counter()
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()

    def next_op(self) -> int:
        self.op += 1
        return self.op

    def self_time_by_name(self) -> dict[str, float]:
        """Total self time (seconds) per span name."""
        out: dict[str, float] = {}
        for sp in self.spans:
            out[sp.name] = out.get(sp.name, 0.0) + sp.self_time
        return out

    def write(self, path: str, process_name: str) -> None:
        """Flush as Chrome ``trace_event`` JSON (complete ``X`` events)."""
        pid = os.getpid()
        ids = {id(sp): i for i, sp in enumerate(self.spans)}
        events = [{"ph": "M", "name": "process_name", "pid": pid, "tid": 0,
                   "args": {"name": process_name}}]
        for sp in self.spans:
            events.append({
                "ph": "X", "name": sp.name, "cat": sp.layer,
                "ts": sp.start * 1e6, "dur": max(0.0, sp.duration) * 1e6,
                "pid": pid, "tid": 0,
                "args": {"op": sp.op, "id": ids[id(sp)],
                         "parent": ids[id(sp.parent)]
                         if sp.parent is not None else None,
                         "self_us": sp.self_time * 1e6},
            })
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)


class NullTracer:
    """The untraced pass: ``span()`` costs one generator frame and
    records nothing, so one code path serves both passes."""

    enabled = False
    op = 0

    @contextmanager
    def span(self, name: str, layer: str = ""):
        yield None

    def next_op(self) -> int:
        return 0


NULL = NullTracer()
