"""The process metrics registry — the home for repro's shared counters.

* a :class:`MetricsRegistry` holds named **counters** (monotonic or
  signed numbers), **timings** (run count + cumulative seconds + min/max)
  and bounded **rings** (recent-item buffers), all behind one lock;
* the process-wide registry (:func:`registry`) carries every
  cross-cutting series — per-pass pipeline time (``pass.*``),
  differential-fuzz totals (``fuzz.*``), compiled-function call profiles
  (``call.*``), the ``exec.*`` and ``spec.memo.*`` counters;
* per-service counters (one :class:`~repro.buildd.stats.BuildStats` per
  :class:`~repro.buildd.service.CompileService`) live in a *private*
  registry instance so tests can build isolated services;
  ``BuildStats.snapshot()`` reports them beside the process-wide
  ``pass.*`` and ``fuzz.*`` series.

The registry is the home for series written from several threads: one
lock and one dict op per update, cheap beside a gcc run or an IR pass.  A
service whose state is confined to one thread keeps its own plain counts
instead (:class:`~repro.serve.server.ServeServer` counts on its event
loop and publishes through its ``stats``), and can share
:func:`fold_time` for the timing shape.
"""

from __future__ import annotations

import threading
from collections import deque
from contextlib import contextmanager
from typing import Iterator, Optional


def fold_time(timings: dict[str, dict], name: str, seconds: float) -> None:
    """Fold one run of ``seconds`` into ``timings[name]`` (run count,
    cumulative seconds, min, max); the caller owns ``timings``."""
    entry = timings.get(name)
    if entry is None:
        entry = {"runs": 0, "seconds": 0.0, "min": seconds, "max": seconds}
        timings[name] = entry
    entry["runs"] += 1
    entry["seconds"] += seconds
    if seconds < entry["min"]:
        entry["min"] = seconds
    if seconds > entry["max"]:
        entry["max"] = seconds


class MetricsRegistry:
    """Thread-safe named counters, timings, and bounded rings."""

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._counters: dict[str, float] = {}
        self._timings: dict[str, dict] = {}
        self._rings: dict[str, deque] = {}

    # -- counters -----------------------------------------------------------
    def add(self, name: str, value: float = 1) -> float:
        """Add ``value`` to counter ``name`` (created at 0); returns the
        new total."""
        with self._lock:
            total = self._counters.get(name, 0) + value
            self._counters[name] = total
            return total

    def set(self, name: str, value: float) -> None:
        """Publish gauge ``name`` at its current absolute ``value``."""
        with self._lock:
            self._counters[name] = value

    def track_max(self, name: str, value: float) -> None:
        """Keep counter ``name`` at the maximum value ever observed."""
        with self._lock:
            if value > self._counters.get(name, 0):
                self._counters[name] = value

    def get(self, name: str, default: float = 0) -> float:
        with self._lock:
            return self._counters.get(name, default)

    def counters(self, prefix: str = "") -> dict[str, float]:
        with self._lock:
            return {k: v for k, v in self._counters.items()
                    if k.startswith(prefix)}

    # -- timings ------------------------------------------------------------
    def record_time(self, name: str, seconds: float) -> None:
        """Fold one run of ``seconds`` into timing ``name``."""
        with self._lock:
            fold_time(self._timings, name, seconds)

    def timing(self, name: str) -> Optional[dict]:
        with self._lock:
            entry = self._timings.get(name)
            return dict(entry) if entry is not None else None

    def timings(self, prefix: str = "") -> dict[str, dict]:
        with self._lock:
            return {k: dict(v) for k, v in self._timings.items()
                    if k.startswith(prefix)}

    # -- rings --------------------------------------------------------------
    def append(self, name: str, item, maxlen: int = 64) -> None:
        with self._lock:
            ring = self._rings.get(name)
            if ring is None:
                ring = deque(maxlen=maxlen)
                self._rings[name] = ring
            ring.append(item)

    def ring(self, name: str) -> list:
        with self._lock:
            return list(self._rings.get(name, ()))

    # -- maintenance --------------------------------------------------------
    def reset(self, prefix: str = "") -> None:
        """Drop every series whose name starts with ``prefix`` (all of
        them for the default empty prefix)."""
        with self._lock:
            for store in (self._counters, self._timings, self._rings):
                for key in [k for k in store if k.startswith(prefix)]:
                    del store[key]

    @contextmanager
    def locked(self) -> Iterator[None]:
        """Hold the registry lock across several updates (the lock is
        reentrant, so the primitives above remain usable inside)."""
        with self._lock:
            yield

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "counters": dict(self._counters),
                "timings": {k: dict(v) for k, v in self._timings.items()},
                "rings": {k: list(v) for k, v in self._rings.items()},
            }


#: the process-wide registry: cross-cutting series (pass.*, fuzz.*, call.*)
_REGISTRY = MetricsRegistry()


def registry() -> MetricsRegistry:
    """The process-wide metrics registry."""
    return _REGISTRY
