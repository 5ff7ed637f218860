"""repro.buildd — the parallel compile service.

The paper's headline engineering property is that staged kernels are
JIT-compiled *in-process* (the §6.1 auto-tuner "JIT-compiles the code,
runs it on a user-provided test case").  ``buildd`` makes that compile
step a **service** rather than a blocking helper: a thread pool of
compiler jobs, a content-addressed artifact cache shared by every
consumer (the C backend, ``saveobj``, Orion, the benchmark baselines),
and telemetry that reports where compile time went.

Quick use::

    import repro.buildd as buildd
    so = buildd.compile(c_source)                  # blocking
    fut = buildd.compile_async(c_source)           # concurrent.futures.Future
    print(buildd.stats()["hit_rate"])

Command line::

    python -m repro.buildd --stats     # cache + service summary
    python -m repro.buildd --gc        # evict over-cap artifacts, drop temps
    python -m repro.buildd --clear     # wipe the artifact cache

Environment (docs/ENVIRONMENT.md): ``REPRO_TERRA_CACHE``,
``REPRO_TERRA_CC``, ``REPRO_BUILDD_JOBS``, ``REPRO_BUILDD_CACHE_BYTES``.
"""

from __future__ import annotations

from typing import Iterable

from .cache import ArtifactCache
from .service import CompileService, DEFAULT_CFLAGS, get_service
from .stats import BuildStats
from .toolchain import (Toolchain, cc_available, cc_identity, find_cc,
                        require_toolchain)

__all__ = [
    "ArtifactCache", "BuildStats", "CompileService", "Toolchain",
    "DEFAULT_CFLAGS", "cc_available", "cc_identity", "compile",
    "compile_async", "find_cc", "get_service", "require_toolchain", "stats",
]


def compile(source: str, flags: Iterable[str] = ()) -> str:  # noqa: A001
    """Compile C ``source`` (blocking); returns the cached .so path."""
    return get_service().compile(source, flags)


def compile_async(source: str, flags: Iterable[str] = ()):
    """Schedule a compile; returns a Future resolving to the .so path."""
    return get_service().compile_async(source, flags)


def stats() -> dict:
    """Service + cache telemetry: jobs, hit rate, queue depth, per-unit
    compile times, bytes cached."""
    return get_service().snapshot()
