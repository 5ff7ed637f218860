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

import threading
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


# -- value profiling (tier-0 argument observation) ---------------------------
#
# The tiered execution policy (repro.exec) watches the *values* flowing
# into a function while it is still interpreted, looking for scalar
# parameters that are the same on every call — respecialization
# candidates.  This is separate from the timing profile above: it is fed
# explicitly by the policy (not by the _runtime_active hook), costs one
# locked list update per observed call, and keeps only a per-position
# lattice (unseen -> one value -> varying), never a value history.

#: lattice top: this position has held more than one distinct value
VARYING = "<varying>"

_args_lock = threading.Lock()
#: fn.uid -> per-position slots; each slot is [observations, value|VARYING]
_arg_profiles: dict[int, list] = {}


def _observe(value):
    """Project an argument to its profiled observation: scalars observe
    their value, array-likes observe (dtype, shape) — so stable *shapes*
    are visible even where values vary — everything else is VARYING."""
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    shape = getattr(value, "shape", None)
    dtype = getattr(value, "dtype", None)
    if shape is not None and dtype is not None:
        return ("array", str(dtype), tuple(shape))
    return VARYING


def _same(a, b) -> bool:
    return type(a) is type(b) and a == b


def note_args(fn, args) -> None:
    """Fold one call's argument tuple into ``fn``'s value profile."""
    with _args_lock:
        slots = _arg_profiles.get(fn.uid)
        if slots is None:
            slots = _arg_profiles[fn.uid] = [None] * len(args)
        for i in range(min(len(args), len(slots))):
            obs = _observe(args[i])
            slot = slots[i]
            if slot is None:
                slots[i] = [1, obs]
            else:
                slot[0] += 1
                if slot[1] is not VARYING and not _same(slot[1], obs):
                    slot[1] = VARYING


def arg_stats(fn) -> list:
    """Per-position value profile for ``fn``: a list (one entry per
    parameter position, None if never observed) of ``{"observations",
    "stable", "value"}`` — ``value`` is None when unstable."""
    with _args_lock:
        slots = _arg_profiles.get(fn.uid)
        if slots is None:
            return []
        out = []
        for slot in slots:
            if slot is None:
                out.append(None)
            else:
                count, value = slot
                stable = value is not VARYING
                out.append({"observations": count, "stable": stable,
                            "value": value if stable else None})
        return out


def clear_args(fn=None) -> None:
    """Drop value profiles — for one function, or all of them."""
    with _args_lock:
        if fn is None:
            _arg_profiles.clear()
        else:
            _arg_profiles.pop(fn.uid, None)


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
