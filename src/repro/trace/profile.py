"""Per-function runtime profiling — where did *execution* time go.

With ``REPRO_TERRA_PROFILE=1`` (or :func:`enable`), every call of a
compiled Terra function — through either backend's Python-callable
handle — records one timing sample into the process metrics registry
under ``call.<name>#<uid>``: call count, cumulative wall seconds, min and
max.  The cost per call is one clock pair plus one locked dict update,
cheap enough to leave on in long-running processes; when disabled the
handles skip the hook entirely via a module-level flag
(:data:`repro.trace._runtime_active`), not per-call environment reads.

Read the results with :meth:`repro.core.function.TerraFunction.report`
(one function) or :func:`report` (every profiled function, sorted by
cumulative time).
"""

from __future__ import annotations

from typing import Optional

from .. import config
from .metrics import registry

_PREFIX = "call."

#: module-level switch (seeded from the environment once, at import)
_enabled = config.get("REPRO_TERRA_PROFILE")


def enabled() -> bool:
    return _enabled


def enable() -> None:
    global _enabled
    _enabled = True
    from . import _sync_runtime
    _sync_runtime()


def disable() -> None:
    global _enabled
    _enabled = False
    from . import _sync_runtime
    _sync_runtime()


def _key(fn) -> str:
    return f"{_PREFIX}{fn.name}#{fn.uid}"


def record(fn, seconds: float) -> None:
    """Fold one call of ``fn`` (a TerraFunction) into its profile."""
    registry().record_time(_key(fn), seconds)


def stats_for(fn) -> Optional[dict]:
    """Profile stats for one function: ``{"calls", "seconds", "min",
    "mean", "max"}``, or None if it was never profiled."""
    entry = registry().timing(_key(fn))
    if entry is None:
        return None
    return _present(entry)


def _present(entry: dict) -> dict:
    runs = entry["runs"]
    return {
        "calls": runs,
        "seconds": entry["seconds"],
        "min": entry["min"],
        "mean": entry["seconds"] / runs if runs else 0.0,
        "max": entry["max"],
    }


def all_stats() -> dict[str, dict]:
    """``{"name#uid": stats}`` for every profiled function."""
    return {name[len(_PREFIX):]: _present(entry)
            for name, entry in registry().timings(_PREFIX).items()}


def clear() -> None:
    registry().reset(_PREFIX)


def report(limit: int = 30) -> str:
    """A table of every profiled function, hottest first."""
    rows = sorted(all_stats().items(),
                  key=lambda kv: kv[1]["seconds"], reverse=True)
    if not rows:
        return ("no profiled calls recorded "
                "(set REPRO_TERRA_PROFILE=1 or call "
                "repro.trace.profile.enable())")
    lines = [f"{'function':<28} {'calls':>8} {'total s':>10} "
             f"{'mean us':>10} {'min us':>10} {'max us':>10}"]
    for name, st in rows[:limit]:
        lines.append(
            f"{name:<28} {st['calls']:>8} {st['seconds']:>10.4f} "
            f"{st['mean'] * 1e6:>10.2f} {st['min'] * 1e6:>10.2f} "
            f"{st['max'] * 1e6:>10.2f}")
    if len(rows) > limit:
        lines.append(f"... and {len(rows) - limit} more")
    return "\n".join(lines)
