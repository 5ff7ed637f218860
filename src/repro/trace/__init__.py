"""repro.trace — end-to-end staging/compile/runtime observability.

The paper's argument is that staging Terra from a dynamic language keeps
the *where-does-the-time-go* question answerable.  This subsystem makes
that literal: every stage of the lifecycle —

    parse → eager specialization → connected-component typecheck →
    each repro.passes pass → C emission → buildd submit / cache-hit /
    compile / link → dlopen + ctypes bind → per-call execution

— is instrumented as nested **spans** with attributes (function name,
component size, pass outcome, cache key, backend, pipeline level), plus
a unified **metrics registry** (:mod:`repro.trace.metrics`) and a
per-call **profiler** (:mod:`repro.trace.profile`).

Quick use::

    import repro.trace as trace
    trace.enable()
    ... define and call Terra functions ...
    print(trace.tree())                 # human nested summary
    trace.export_chrome("trace.json")   # open in chrome://tracing / Perfetto

Environment (docs/ENVIRONMENT.md): ``REPRO_TERRA_TRACE=1`` traces the
whole process and writes a Chrome-trace JSON at exit (to
``REPRO_TERRA_TRACE_OUT``); ``REPRO_TERRA_PROFILE=1`` turns on per-call
profiling (``fn.report()``, ``repro.trace.profile.report()``).

Cost when disabled (the default): instrumented call sites check one
module-level flag and receive a shared no-op span — no environment reads,
no allocation, no locking.  The ledger's ``trace.overhead_ratio`` holds
the enabled cost to a number.

Command line::

    python -m repro.trace run  script.py [args...]   # run traced, dump
    python -m repro.trace view trace.json --tree     # summarize a trace
    python -m repro.trace validate trace.json        # structural check

See ``docs/OBSERVABILITY.md`` for the full guide.
"""

from __future__ import annotations

import atexit
import time
from typing import Optional

from .. import config
from . import metrics, profile
from .collector import Collector, NULL_SPAN, Span
from .export import (format_tree, summarize, to_chrome, validate_chrome,
                     write_chrome)

__all__ = [
    "Collector", "Span", "NULL_SPAN", "enable", "disable", "enabled",
    "span", "instant", "events", "clear", "tree", "export_chrome",
    "to_chrome", "format_tree", "summarize", "validate_chrome",
    "write_chrome", "metrics", "profile", "timed_call",
]

_collector = Collector()
_enabled = False

#: fast-path switch for the per-call execution hook: true when tracing
#: OR profiling is on.  Backends read this module attribute directly —
#: one global lookup per call, no env reads (see CompiledFunction).
_runtime_active = False
_runtime_switch = None  # the same as a ctypes c_int, once the C backend runs


def _sync_runtime() -> None:
    global _runtime_active
    _runtime_active = _enabled or profile._enabled
    if _runtime_switch is not None:
        _runtime_switch.value = _runtime_active


def enabled() -> bool:
    """Whether span collection is on."""
    return _enabled


def enable() -> None:
    """Turn span collection on (idempotent)."""
    global _enabled
    _enabled = True
    _sync_runtime()


def disable() -> None:
    global _enabled
    _enabled = False
    _sync_runtime()


def collector() -> Collector:
    return _collector


def span(name: str, cat: str = "stage", **args):
    """Open a span (use as a context manager, or call ``.set``/close via
    ``with``).  Returns the shared no-op span when tracing is off."""
    if not _enabled:
        return NULL_SPAN
    return _collector.begin(name, cat, args or None)


def instant(name: str, cat: str = "stage", **args) -> None:
    """Record a zero-duration marker (cache hit, dedup, divergence...)."""
    if _enabled:
        _collector.instant(name, cat, args or None)


def events() -> list[Span]:
    return _collector.events()


def clear() -> None:
    """Drop all recorded spans (does not change enabled/disabled)."""
    _collector.clear()


def tree(max_children: int = 24, min_ms: float = 0.0) -> str:
    """The recorded spans as a human nested summary."""
    return format_tree(to_chrome(_collector.events()),
                       max_children=max_children, min_ms=min_ms)


def export_chrome(path: Optional[str] = None):
    """Export recorded spans as Chrome trace_event JSON.  With ``path``,
    writes the file (atomically) and returns the path; without, returns
    the document as a dict."""
    spans = _collector.events()
    if path is None:
        return to_chrome(spans)
    return write_chrome(path, spans)


# -- the per-call execution hook ----------------------------------------------

def timed_call(fn, thunk):
    """Run ``thunk`` as one timed call of TerraFunction ``fn``: an
    execution span when tracing, a profile sample when profiling.  Called
    by the backends' handles only while :data:`_runtime_active` is set."""
    sp = _collector.begin(f"call:{fn.name}", "exec", None) if _enabled \
        else NULL_SPAN
    t0 = time.perf_counter()
    try:
        with sp:
            return thunk()
    finally:
        if profile._enabled:
            profile.record(fn, time.perf_counter() - t0)


# -- environment activation ---------------------------------------------------

def _dump_at_exit() -> None:
    out = config.get("REPRO_TERRA_TRACE_OUT")
    try:
        path = export_chrome(out)
        n = len(_collector)
        print(f"[repro.trace] wrote {n} events to {path}")
    except OSError as exc:  # never let teardown mask the real exit
        print(f"[repro.trace] could not write trace: {exc}")


if config.get("REPRO_TERRA_TRACE"):
    enable()
    atexit.register(_dump_at_exit)

_sync_runtime()
