"""The in-process compile service.

``CompileService`` owns all native-code production: callers hand it C
source and flags and get back the path of a compiled shared object —
either immediately from the content-addressed cache, or after a compiler
run on the service's thread pool.  Because the actual work is a gcc
subprocess, worker threads spend their time in ``subprocess.run`` with the
GIL released, so ``REPRO_BUILDD_JOBS`` compiles genuinely overlap.

Guarantees:

* **blocking and future APIs** — ``compile(source, flags)`` waits;
  ``compile_async(source, flags)`` returns a ``concurrent.futures.Future``
  resolving to the artifact path;
* **in-flight dedup** — two threads requesting the same key while a build
  is running share one compiler run (and one failure, if it fails);
* **telemetry** — every request is recorded in :class:`~repro.buildd.
  stats.BuildStats` (hits, misses, dedups, per-unit wall time, queue
  depth).

A unit is compiled (``cc -c``) and then linked by the toolchain's own
``ld -shared`` with no C runtime and no ``DT_NEEDED``: its externals bind
at ``dlopen`` against the process, as Terra's JIT binds them
(docs/INTERNALS.md "How a unit is built").

The module-level :func:`get_service` singleton is what the backends use.
"""

from __future__ import annotations

import os
import subprocess
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import contextmanager
from typing import Iterable, Optional

from ..errors import CompileError
from .. import config, trace
from ..trace.metrics import registry
from . import toolchain as _toolchain
from .cache import ArtifactCache, unlink_quietly, write_atomic
from .stats import BuildStats

# -fwrapv: Terra's integer semantics wrap at the type's width (LLVM adds
# without nsw); the reference interpreter implements exactly that, so the
# C backend must not treat signed overflow as undefined.
# -ffp-contract=off: per-operation IEEE semantics (LLVM's default, and
# what the interpreter computes); gcc would otherwise fuse a*b+c into FMA.
# Pass extra flags ("-ffp-contract=fast") to opt back in per unit.
DEFAULT_CFLAGS = ["-O3", "-march=native", "-fPIC", "-shared",
                  "-fno-strict-aliasing", "-fno-semantic-interposition",
                  "-fwrapv", "-ffp-contract=off", "-w"]
#: a cached unit's compile step: -shared is the driver's link (the ledger's
#: floor still runs it), and a unit is linked by the linker itself
CC_FLAGS = [f for f in DEFAULT_CFLAGS if f != "-shared"]


#: thread-local holding the artifact-cache namespace for builds submitted
#: by the current thread (see cache_namespace)
_ns_ctx = threading.local()


@contextmanager
def cache_namespace(namespace: Optional[str]):
    """Attribute builds submitted inside the block to ``namespace``.

    The namespace travels to :meth:`ArtifactCache.publish`, where it is
    recorded on the entry and counted in ``summary()["namespaces"]`` —
    :mod:`repro.serve` wraps each tenant's compile in
    ``cache_namespace(tenant_id)``, so the cache can say which tenant
    fills it.  Attribution is advisory: the cache stays
    content-addressed, so identical source from two namespaces still
    builds once (owned by whichever submitted first)."""
    prev = getattr(_ns_ctx, "namespace", None)
    _ns_ctx.namespace = namespace
    try:
        yield
    finally:
        _ns_ctx.namespace = prev


def current_namespace() -> Optional[str]:
    return getattr(_ns_ctx, "namespace", None)


class CompileService:
    """A thread-pooled, cache-backed C compiler front end."""

    def __init__(self, jobs: Optional[int] = None,
                 cache: Optional[ArtifactCache] = None,
                 tc: Optional[_toolchain.Toolchain] = None) -> None:
        self.jobs = jobs if jobs is not None \
            else config.get("REPRO_BUILDD_JOBS")
        self.cache = cache if cache is not None else ArtifactCache()
        self._tc = tc
        self.stats = BuildStats()
        self._lock = threading.Lock()
        self._inflight: dict[str, Future] = {}
        self._flag_keys: dict[tuple, str] = {}  # see flags_key
        self._pool = ThreadPoolExecutor(max_workers=self.jobs,
                                        thread_name_prefix="buildd")

    # -- toolchain ----------------------------------------------------------
    def toolchain(self) -> _toolchain.Toolchain:
        if self._tc is not None:
            return self._tc
        return _toolchain.require_toolchain()

    def _cc_identity(self) -> str:
        if self._tc is not None:
            return self._tc.identity
        return _toolchain.cc_identity()

    # -- the main entry points ----------------------------------------------
    def key_for(self, source: str, flags: Iterable[str] = ()) -> str:
        return self.cache.key_for(source, (*DEFAULT_CFLAGS, *flags),
                                  self._cc_identity())

    def flags_key(self, flags: tuple[str, ...]) -> str:
        """The key of the empty unit: what the flags and the compiler put
        into every key — hashed once per both."""
        cc = self._cc_identity()
        key = self._flag_keys.get((flags, cc))
        if key is None:
            key = self._flag_keys[flags, cc] = self.key_for("", flags)
        return key

    def compile(self, source: str, flags: Iterable[str] = ()) -> str:
        """Compile (or fetch) ``source``; blocks; returns the .so path."""
        return self.compile_async(source, flags).result()

    def fetch(self, key: str, memo: Optional[tuple] = None) -> Optional[str]:
        """The cached artifact for ``key`` or None — a request like any
        other when it hits: counted, LRU-bumped, traced."""
        cached = self.cache.lookup(key, memo)
        if cached is not None:
            self.stats.record_hit()
            trace.instant("buildd.cache_hit", cat="buildd", key=key[:12])
        return cached

    def compile_async(self, source: str, flags: Iterable[str] = (),
                      memo: Optional[tuple] = None) -> Future:
        """Schedule a compile; returns a Future resolving to the .so path.

        Identical concurrent requests (same source, flags, and compiler)
        share a single build; cached keys resolve immediately.  ``memo``
        — ``(digest, record)`` of the specialized tree ``source`` was
        emitted from — is noted in its memo file.
        """
        flags = tuple(flags)
        key = self.key_for(source, flags)
        with self._lock:
            cached = self.fetch(key, memo)
            if cached is not None:
                done: Future = Future()
                done.set_result(cached)
                return done
            fut = self._inflight.get(key)
            if fut is not None:
                self.stats.record_dedup()
                trace.instant("buildd.dedup", cat="buildd", key=key[:12])
                return fut
            self.stats.record_submit()
            trace.instant("buildd.submit", cat="buildd", key=key[:12])
            fut = self._pool.submit(self._build, key, source, flags,
                                    current_namespace(), memo)
            self._inflight[key] = fut
            return fut

    # -- the worker ---------------------------------------------------------
    def _build(self, key: str, source: str, flags: tuple[str, ...],
               namespace: Optional[str] = None,
               memo: Optional[tuple] = None) -> str:
        t0 = time.perf_counter()
        try:
            with trace.span("buildd.compile", cat="buildd", key=key[:12],
                            source_bytes=len(source)) as sp:
                # another process may have published this key since lookup
                final = self.cache.lookup(key, memo)
                if final is not None:
                    self.stats.record_already_built()
                    sp.set(already_built=True)
                    return final
                built = self._cc_and_link(key, source, flags)
                dt, size = time.perf_counter() - t0, os.path.getsize(built)
                final = self.cache.publish(key, built, namespace=namespace,
                                           memo=memo)
                self.stats.record_compile(key, dt, size)
                sp.set(artifact_bytes=size)
                return final
        except BaseException:
            self.stats.record_failure(key, time.perf_counter() - t0)
            raise
        finally:
            with self._lock:
                self._inflight.pop(key, None)

    def _cc_and_link(self, key: str, source: str,
                     flags: tuple[str, ...]) -> str:
        """A unit's two steps, each a span; returns the built temp file."""
        tc = self.toolchain()
        c_path = self.cache.source_path(key)
        write_atomic(c_path, source)
        obj, built = self.cache.make_temp(".o.tmp"), self.cache.make_temp()
        try:
            with trace.span("buildd.cc", cat="buildd"):
                _run(tc.path, [*CC_FLAGS, *flags, "-c", c_path,
                               "-o", obj],
                     f"\n--- generated C ({c_path}) ---\n{source}")
            with trace.span("buildd.link", cat="buildd"):
                _run(tc.ld, ["-shared", obj,
                             *([tc.libgcc] if tc.libgcc else []),
                             "-o", built])
        except BaseException:
            unlink_quietly(built)
            raise
        finally:
            unlink_quietly(obj)
        return built

    # -- one-off builds to a caller-chosen path (saveobj) --------------------
    def compile_to(self, out_path: str, source: str,
                   flags: Iterable[str]) -> str:
        """Compile ``source`` with exactly ``flags`` (no base flags) to
        ``out_path``.  Runs on the pool (so it is counted and can overlap
        with other builds) but is not cached: the output lives outside the
        cache root.  Used by ``saveobj`` for .o/.so outputs."""

        def job() -> str:
            t0 = time.perf_counter()
            tmp = out_path + f".{os.getpid()}.{threading.get_ident()}.tmp"
            with trace.span("buildd.compile_to", cat="buildd",
                            out=os.path.basename(out_path)):
                try:    # the driver's full link: the output leaves
                    _run(self.toolchain().path, [*flags, "-o", tmp])
                    os.replace(tmp, out_path)
                finally:
                    unlink_quietly(tmp)
            self.stats.record_compile(f"saveobj:{os.path.basename(out_path)}",
                                      time.perf_counter() - t0,
                                      os.path.getsize(out_path))
            return out_path

        self.stats.record_submit()
        fut = self._pool.submit(job)
        try:
            return fut.result()
        except BaseException:
            self.stats.record_failure(f"saveobj:{out_path}", 0.0)
            raise

    # -- reporting / lifecycle ----------------------------------------------
    def snapshot(self) -> dict:
        out = {"jobs": self.jobs}
        tc = _toolchain.default_toolchain() if self._tc is None else self._tc
        out["compiler"] = str(tc) if tc is not None else None
        out.update(self.cache.summary())
        out.update(self.stats.snapshot())
        # the linker's structural memo: rows on disk, this process's counts
        out["spec.memo"] = {"rows": self.cache.memo_rows(), **{
            name[len("spec.memo."):]: int(count) for name, count
            in sorted(registry().counters("spec.memo.").items())}}
        return out

    def shutdown(self, wait: bool = True) -> None:
        self._pool.shutdown(wait=wait)


def _run(tool: str, args: list, context: str = "") -> None:
    """Run one build step; its failure is a :class:`CompileError` naming
    the tool, with its stderr and ``context``."""
    try:
        proc = subprocess.run([tool, *args], capture_output=True, text=True)
    except OSError as exc:
        raise CompileError(f"cannot run {tool}: {exc}") from None
    if proc.returncode != 0:
        raise CompileError(f"{os.path.basename(tool)} failed "
                           f"({proc.returncode}):\n{proc.stderr}{context}")


# -- the process-wide service ------------------------------------------------
_service: Optional[CompileService] = None
_service_lock = threading.Lock()


def get_service() -> CompileService:
    global _service
    if _service is None:
        with _service_lock:
            if _service is None:
                _service = CompileService()
    return _service
