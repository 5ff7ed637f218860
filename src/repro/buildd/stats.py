"""Compile telemetry for the buildd service — a view over repro.trace.metrics.

Every native-code production in the process flows through one
:class:`BuildStats` instance (owned by the :class:`~repro.buildd.service.
CompileService`), so a tuner sweep, a test run, or a long-lived server can
ask *after the fact* where its compile time went:

* per-unit compile wall time (a bounded ring of recent builds plus totals),
* cache hit rate (hits / misses / in-flight dedups),
* queue depth (builds submitted but not yet finished, and the high-water
  mark).

The counters (submitted / hits / misses / compiles / queue) live in a
metrics registry private to this instance, so independently-built
services stay isolated.  ``snapshot()`` reports them as one dict and, so
that one report covers IR time, gcc time and what the fuzzer did with
them, reads two series of the **process-wide** registry beside them:
per-IR-pass timings (``pass.*``, written by the :mod:`repro.passes`
manager) and differential-fuzzing totals (``fuzz.*``, written by
:mod:`repro.fuzz.runner`).
"""

from __future__ import annotations

from typing import Optional

from ..trace.metrics import MetricsRegistry, registry as _global_registry

#: how many per-unit build records the ring buffer keeps
RECENT_BUILDS = 64

_P = "buildd."  # per-service counter prefix inside the private registry


class BuildStats:
    """Thread-safe counters for one compile service (a metrics view)."""

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        #: per-service counters; private by default
        self.registry = registry if registry is not None else MetricsRegistry()

    # -- the three counters callers compare before/after a build -----------
    @property
    def submitted(self) -> int:
        return int(self.registry.get(_P + "submitted"))

    @property
    def cache_hits(self) -> int:
        return int(self.registry.get(_P + "cache_hits"))

    @property
    def compiles(self) -> int:
        return int(self.registry.get(_P + "compiles"))

    # -- event hooks (called by the service) --------------------------------
    def record_hit(self) -> None:
        with self.registry.locked():
            self.registry.add(_P + "submitted")
            self.registry.add(_P + "cache_hits")

    def record_dedup(self) -> None:
        with self.registry.locked():
            self.registry.add(_P + "submitted")
            self.registry.add(_P + "inflight_dedup")

    def record_submit(self) -> None:
        with self.registry.locked():
            self.registry.add(_P + "submitted")
            self.registry.add(_P + "cache_misses")
            depth = self.registry.add(_P + "queue_depth")
            self.registry.track_max(_P + "max_queue_depth", depth)

    def record_compile(self, key: str, seconds: float, size: int) -> None:
        with self.registry.locked():
            self.registry.add(_P + "compiles")
            self.registry.add(_P + "compile_seconds", seconds)
            self.registry.add(_P + "queue_depth", -1)
            self.registry.append(
                _P + "recent",
                {"key": key, "seconds": round(seconds, 4), "bytes": size},
                maxlen=RECENT_BUILDS)

    def record_failure(self, key: str, seconds: float) -> None:
        with self.registry.locked():
            self.registry.add(_P + "failures")
            self.registry.add(_P + "compile_seconds", seconds)
            self.registry.add(_P + "queue_depth", -1)

    def record_already_built(self) -> None:
        """A scheduled build found the artifact already published (by
        another process) — not a compile, not a failure."""
        self.registry.add(_P + "queue_depth", -1)

    # -- reporting ----------------------------------------------------------
    def snapshot(self) -> dict:
        reg, glob = self.registry, _global_registry()
        with reg.locked():
            out = {name: int(reg.get(_P + name)) for name in (
                "submitted", "cache_hits", "cache_misses", "inflight_dedup",
                "compiles", "failures", "compile_seconds", "queue_depth",
                "max_queue_depth")}
            out["compile_seconds"] = round(
                float(reg.get(_P + "compile_seconds")), 4)
            total = (out["cache_hits"] + out["cache_misses"]
                     + out["inflight_dedup"])
            out["hit_rate"] = out["cache_hits"] / total if total else None
            out["recent_builds"] = reg.ring(_P + "recent")
        out["fuzz"] = {name: int(glob.get("fuzz." + name)) for name in (
            "programs", "divergences", "traps", "crashes")}
        out["passes"] = {
            name[len("pass."):]: {"runs": entry["runs"],
                                  "seconds": round(entry["seconds"], 4)}
            for name, entry in sorted(glob.timings("pass.").items())}
        return out
