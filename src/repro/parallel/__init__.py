"""repro.parallel — multicore dispatch for Terra loop kernels.

The paper's evaluation kernels are single-threaded; the ROADMAP's north
star ("as fast as the hardware allows") also includes the *other* cores.
This package is the runtime half of that story:

* the C backend emits a **chunked entry** for any kernel marked with
  ``fn.mark_chunked()`` — ``<name>_chunk(int64 lo, int64 hi, args...,
  int32* trap)`` runs just the iterations of the kernel's final loop
  that fall in ``[lo, hi)``;
* :func:`parallel_for` splits ``[lo, hi)`` into per-worker chunks and
  drives them through a persistent thread pool.  ctypes releases the
  GIL during each C call, so the workers genuinely occupy N cores;
* a worker-side trap (``%0`` etc.) surfaces as **one**
  :class:`~repro.errors.TrapError` on the dispatching thread, and the
  pool survives to run the next dispatch;
* :func:`run_tasks` is the pool round-trip itself, for a dispatch that
  is not one range of one kernel (Orion's strips with a barrier between
  stage groups).

Surfaced in three places: the ``Parallel`` schedule directive
(:mod:`repro.schedule`; Orion takes it as ``Parallel("y", NT)``), the
``parallel_map_rows`` helper of :mod:`repro.lib.datatable`, and the
packed GEMM driver's panel loop (:mod:`repro.autotune.matmul`).

Environment: ``REPRO_TERRA_THREADS`` overrides every requested thread
count (``1`` disables parallel dispatch entirely — bit-identical to
never having asked).  Observability: dispatches emit ``parallel.for``
spans, chunks run inside per-worker ``parallel.chunk`` spans (one trace
lane per worker thread), and the ``parallel.*`` metrics series counts
dispatches/chunks/traps.

>>> from repro import terra
>>> from repro.parallel import parallel_for
>>> scale = terra('''
... terra scale(n : int64, a : float, x : &float)
...   for i = 0, n do x[i] = a * x[i] end
... end
... ''').mark_chunked()
>>> # parallel_for(scale, 0, n, n, 2.0, x_ptr)   # doctest: +SKIP
"""

from __future__ import annotations

import time
from typing import Callable, Optional, Sequence

from .. import config
from .. import trace as _trace
from ..errors import TrapError
from .pool import WorkerPool, get_pool, in_worker, shutdown_pool

__all__ = [
    "parallel_for", "run_tasks", "split_range",
    "default_nthreads", "WorkerPool", "get_pool", "shutdown_pool",
    "in_worker",
]


def default_nthreads(requested: int = 0) -> int:
    """The effective worker count for a dispatch.

    ``REPRO_TERRA_THREADS`` (read per call, so tests can monkeypatch it)
    overrides everything; otherwise an explicit ``requested`` count wins;
    otherwise the machine's core count.  A result of 1 means "stay
    serial" — no pool, no chunking, byte-identical behaviour to code
    that never mentioned parallelism."""
    env = config.get("REPRO_TERRA_THREADS")
    if env is not None:
        return env
    if requested and int(requested) > 0:
        return int(requested)
    return config.cpus()


def split_range(lo: int, hi: int, nparts: int,
                align: int = 1) -> list[tuple[int, int]]:
    """Split ``[lo, hi)`` into up to ``nparts`` contiguous chunks.

    With ``align > 1`` every interior cut sits a multiple of ``align``
    above ``lo`` (the final chunk keeps any remainder), so blocked
    kernels can keep whole blocks inside one chunk."""
    total = hi - lo
    if total <= 0:
        return []
    if nparts <= 1:
        return [(lo, hi)]
    out: list[tuple[int, int]] = []
    prev = lo
    for i in range(1, nparts):
        cut = lo + (total * i) // nparts
        if align > 1:
            cut -= (cut - lo) % align
        if cut <= prev:
            continue
        out.append((prev, cut))
        prev = cut
    if prev < hi:
        out.append((prev, hi))
    return out


def _chunk_runner(kernel, args) -> Callable[[int, int], None]:
    """A ``run(lo, hi)`` callable for one dispatch of ``kernel``.

    ``kernel`` is a Terra function (compiled on the C backend; must be
    ``mark_chunked()``), an already-compiled C handle, or any Python
    callable ``f(lo, hi, *args)`` (the portable fallback — correct, but
    it cannot release the GIL)."""
    if getattr(kernel, "is_terra_function", False):
        # chunked dispatch is a C-backend feature: resolve the handle
        # through the kernel's dispatcher (joining any pending async
        # compile / tier-up) rather than around it
        kernel = kernel.dispatcher.compiled_handle("c")
    caller = getattr(kernel, "chunk_caller", None)
    if caller is not None:
        return caller(*args)

    def run(lo: int, hi: int):
        kernel(lo, hi, *args)

    run.kernel_name = getattr(kernel, "__name__", "kernel")
    return run


def parallel_for(kernel, lo: int, hi: int, *args,
                 nthreads: int = 0, grain: int = 1) -> None:
    """Run ``kernel`` over ``[lo, hi)`` split across worker threads.

    The iterates executed (and, for disjoint writes, the results) are
    exactly the serial call's, whatever the chunking; ``grain`` aligns
    interior chunk cuts to multiples of ``grain`` above ``lo``.

    Trap handling: if any worker traps, one :class:`TrapError` is raised
    here after *all* chunks finish — the pool is never wedged, and
    every non-trapping chunk has completed (same all-or-nothing shape as
    a serial trap mid-loop: partial writes are visible).
    """
    n = default_nthreads(nthreads)
    run = _chunk_runner(kernel, args)
    if hi - lo <= 0:
        return
    chunks = split_range(lo, hi, n, align=grain)
    if n <= 1 or len(chunks) <= 1 or in_worker():
        # serial path: one chunk covering everything, on this thread
        run(lo, hi)
        return
    name = getattr(run, "kernel_name", "kernel")
    t0 = time.perf_counter()
    with _trace.span(f"parallel.for:{name}", cat="exec", kernel=name,
                     chunks=len(chunks), nthreads=n, lo=lo, hi=hi):
        errors = run_tasks(
            [_traced_chunk(run, name, c0, c1) for c0, c1 in chunks],
            nthreads=n)
    _account(len(chunks), time.perf_counter() - t0, errors)


def _traced_chunk(run, name, lo, hi):
    def task():
        with _trace.span(f"parallel.chunk:{name}", cat="exec",
                         kernel=name, lo=lo, hi=hi):
            run(lo, hi)
    return task


def run_tasks(thunks: Sequence[Callable[[], None]],
              nthreads: int = 0) -> list[Optional[BaseException]]:
    """Run arbitrary thunks on the shared pool; returns per-thunk error
    slots.  Low-level building block (Orion's per-group dispatch uses it
    directly); most callers want :func:`parallel_for`."""
    n = max(default_nthreads(nthreads), 1)
    return get_pool(min(n, max(len(thunks), 1))).run(thunks)


def _account(nchunks: int, seconds: float,
             errors: Sequence[Optional[BaseException]]) -> None:
    """Metrics for one dispatch, then one exception for its worker errors:
    traps fold into a single :class:`TrapError`; any non-trap worker
    exception (a bug, not a defined runtime trap) is re-raised as-is."""
    from ..trace.metrics import registry
    reg = registry()
    reg.add("parallel.dispatches")
    reg.add("parallel.chunks", nchunks)
    reg.record_time("parallel.for", seconds)
    real = [e for e in errors if e is not None]
    if not real:
        return
    for exc in real:
        if not isinstance(exc, TrapError):
            raise exc
    reg.add("parallel.traps", len(real))
    first = real[0]
    extra = f" (+{len(real) - 1} more worker traps)" if len(real) > 1 else ""
    raise TrapError(f"{first}{extra}")
