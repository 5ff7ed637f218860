"""repro.parallel — multicore dispatch for Terra loop kernels.

The paper's evaluation kernels are single-threaded; the ROADMAP's north
star ("as fast as the hardware allows") also includes the *other* cores.
This package is the runtime half of that story:

* a loop kernel's ``fn.chunked`` twin — ``<name>_chunk(lo, hi,
  args...)``, staged from its definition by :func:`stage_chunked` — runs
  just the iterations of the kernel's final loop that fall in ``[lo,
  hi)``;
* :func:`parallel_for` splits ``[lo, hi)`` into per-worker chunks and
  drives them through a persistent thread pool, each chunk one call of
  the kernel on the default backend.  ctypes releases the GIL during
  each C call, so on C the workers genuinely occupy N cores (the
  interpreter runs them in turns, with the same results);
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
... ''')
>>> # parallel_for(scale.chunked, 0, n, n, 2.0, x)   # doctest: +SKIP
"""

from __future__ import annotations

import time
from typing import Callable, Optional, Sequence

from .. import config
from .. import trace as _trace
from ..core import sast, tast
from ..core import types as T
from ..core.function import TerraFunction
from ..core.symbols import Symbol
from ..errors import CompileError, SpecializeError, TrapError
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


def stage_chunked(fn):
    """Stage ``fn.chunked`` (:attr:`TerraFunction.chunked`), the ``[lo,
    hi)`` twin of a loop kernel: the checks read the typechecked tree (the
    loop variable's type too), the twin reuses the specialized one."""
    if fn.is_external:
        raise SpecializeError(f"chunked: {fn.name!r} is external; chunked "
                              f"kernels exist only for Terra-defined loops")
    fn.ensure_typechecked()
    ftype = fn.typed.type
    if ftype.returns:
        raise CompileError(
            f"chunked: {fn.name!r} returns {ftype.returntype}; chunked "
            f"kernels must return nothing (results go through out-pointers)")
    if ftype.varargs:
        raise CompileError(f"chunked: {fn.name!r} is varargs")
    *prelude, loop = fn.body.statements or [None]
    if not isinstance(loop, sast.SForNum):
        raise CompileError(
            f"chunked: {fn.name!r}'s body must end in a numeric for loop "
            f"(the axis repro.parallel splits into chunks)")
    # the loop as typechecked — found by its variable, which a schedule
    # lowered since keeps on the loop running the body
    typed = next(n for n in tast.walk(fn.typed.body)
                 if isinstance(n, tast.TForNum) and n.symbol is loop.symbol)
    if typed.step is not None and typed.step_sign <= 0:
        raise CompileError(
            f"chunked: {fn.name!r}'s final loop must ascend (constant "
            f"positive step) to be split into [lo, hi) chunks")
    vt = typed.var_type
    lo, hi = Symbol(T.int64, "lo"), Symbol(T.int64, "hi")
    start, limit = Symbol(vt, "start"), Symbol(vt, "limit")
    var, binop = sast.SVar, sast.SBinOp
    lo_, hi_ = sast.SCast(vt, var(lo)), sast.SCast(vt, var(hi))
    first = lo_
    if loop.step is not None:   # start + (lo - start + step - 1) / step * step
        step = sast.SCast(vt, loop.step)
        gap = binop("-", binop("+", binop("-", lo_, var(start)), step),
                    sast.SConst(1, vt))
        first = binop("+", var(start),
                      binop("*", binop("/", gap, step), step))

    def clamp(sym, op, bound, value):
        return sast.SIf([(binop(op, var(sym), bound),
                          sast.SBlock([sast.SAssign([var(sym)], [value])]))],
                        None)

    twin = TerraFunction(f"{fn.name}_chunk", fn.location)
    twin.define([lo, hi, *fn.param_symbols], [T.int64, T.int64,
                                              *fn.param_types],
                fn.declared_rettype, sast.SBlock([
                    *prelude,
                    sast.SVarDecl([start, limit], [vt, vt],
                                  [loop.start, loop.limit]),
                    clamp(limit, ">", hi_, hi_),
                    clamp(start, "<", lo_, first),
                    sast.SForNum(loop.symbol, var(start), var(limit),
                                 loop.step, loop.body, loop.location)]))
    schedule = getattr(fn, "schedule", None)
    if schedule:
        from ..schedule import Parallel
        twin.schedule = schedule.partition(
            lambda d: isinstance(d, Parallel))[1]
    return twin


def _chunk_runner(kernel, args) -> Callable[[int, int], None]:
    """A ``run(lo, hi)`` callable for one dispatch of ``kernel``, which
    takes ``(lo, hi, *args)``: a Terra function (a loop kernel's
    ``chunked`` twin, say) runs through its default-backend handle's
    prepared caller, which converts ``args`` once, here; any other
    callable is called as it is (correct, but it cannot release the
    GIL)."""
    if getattr(kernel, "is_terra_function", False):
        # through the kernel's dispatcher, joining any pending compile
        return kernel.compile().tail_caller(2, *args)

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
