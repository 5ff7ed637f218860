"""Backend interface and registry.

Two backends reproduce Terra's LLVM JIT:

* ``"c"`` — emits C, compiles with the system gcc at ``-O3 -march=native``,
  loads the shared object with ctypes.  This is the performance path.
* ``"interp"`` — a reference interpreter over the typed IR with a checked
  flat-memory substrate.  Used for differential testing and on hosts
  without a C compiler.

The default backend is ``"c"`` when a C compiler is present, else
``"interp"``; override with :func:`set_default_backend` or the
``REPRO_TERRA_BACKEND`` environment variable.
"""

from __future__ import annotations

import threading
from typing import Callable, Optional

from ..errors import CompileError
from .. import config
from .. import trace as _trace


class CompileTicket:
    """A future-like handle to one unit compilation — what every compile
    returns, whether or not anything is still running.

    ``result()`` blocks until the underlying build finishes, applies the
    (memoized) binding step exactly once however many callers join, and
    returns the callable handle.  Backends with nothing to wait for return
    already-bound tickets via :meth:`completed`.
    """

    def __init__(self, future=None, mapper: Optional[Callable] = None):
        self._future = future
        self._mapper = mapper
        self._lock = threading.Lock()
        self._resolved = False
        self._value = None
        #: called once, when :meth:`result` first binds the handle or raises
        #: the build's failure: the sharing dispatcher forgets the ticket
        self.on_settled: Optional[Callable] = None

    @classmethod
    def completed(cls, value) -> "CompileTicket":
        ticket = cls()
        ticket._resolved = True
        ticket._value = value
        return ticket

    def done(self) -> bool:
        return self._resolved or (self._future is not None
                                  and self._future.done())

    def result(self, timeout: Optional[float] = None):
        with self._lock:
            if not self._resolved:
                try:
                    raw = self._future.result(timeout)
                    self._value = self._mapper(raw) if self._mapper else raw
                    self._resolved = True
                finally:    # (a timeout leaves the build running: unsettled)
                    if self.on_settled is not None and self._future.done():
                        settled, self.on_settled = self.on_settled, None
                        settled()
            return self._value

    async def await_built(self) -> None:
        """Asyncio hook: wait — without blocking the calling event loop —
        until the underlying build has finished, so a subsequent
        ``result()`` never blocks on the compiler (only the cheap binding
        step remains).  Build *failures* are deliberately not raised here;
        ``result()`` re-raises them with full context."""
        if self._resolved or self._future is None:
            return
        import asyncio
        try:
            await asyncio.wrap_future(self._future)
        except Exception:
            pass  # surfaced by result()


class ExecutableHandle:
    """The uniform Python-callable handle interface both backends bind.

    A handle pairs one Terra function (``self.func``) with one backend's
    executable form of it (``self.type`` is the function's
    ``FunctionType``); subclasses implement :meth:`_invoke` over
    already-supplied argument tuples.  ``__call__`` puts it behind the
    observability hook — one module-attribute check when tracing and
    profiling are off, spans + profile samples when on — so that it
    behaves identically on every backend.  :attr:`entry` is what a call
    slot installs: the handle itself, or (the C handle's) its call plan,
    which makes the same check per call."""

    func = None          # the TerraFunction this handle executes
    type = None          # its FunctionType

    entry = property(lambda self: self)

    def __call__(self, *args):
        # one module-attribute check when observability is off; spans and
        # profile samples only on the slow path (see repro.trace)
        if _trace._runtime_active:
            return _trace.timed_call(self.func, lambda: self._invoke(args))
        return self._invoke(args)

    def _invoke(self, args):
        raise NotImplementedError


class Backend:
    """Interface implemented by both execution backends."""

    name: str = "abstract"

    #: the :mod:`repro.passes` pipeline level this backend reads every body
    #: at (0 = raw typechecker output, 1 = canonicalized, 2 = full
    #: optimization, 3 = full plus auto-vectorization — see
    #: :data:`repro.passes.LEVEL_PASSES`), unless ``REPRO_TERRA_PIPELINE``
    #: or ``pipeline_override`` forces another.  A level is built once per
    #: function, so two backends requesting the same level share the work.
    pipeline_level: int = 2

    def memoized_unit(self, fn) -> tuple:
        """What this backend's structural memo knows of ``fn``'s component
        before anything typechecks it: ``(outcome, ticket, memo)`` — the
        ticket binds a previously compiled artifact when the outcome is
        ``"hit"``; ``memo`` is what :meth:`submit_unit` should remember the
        unit under otherwise.  All None (the default): no memo, or nothing
        left for one to skip."""
        return None, None, None

    def submit_unit(self, fn, component, memo=None) -> CompileTicket:
        """Start compiling ``fn``'s connected ``component`` (a list of
        TerraFunctions, fn first) without waiting for it; the returned
        ticket's ``result()`` yields ``fn``'s Python-callable handle.  The
        C backend runs gcc on the buildd pool; the interpreter, whose
        "compilation" is cheap, returns a completed ticket."""
        raise NotImplementedError

    # -- globals ------------------------------------------------------------
    def materialize_global(self, glob):
        raise NotImplementedError

    def read_global(self, glob):
        raise NotImplementedError

    def write_global(self, glob, value):
        raise NotImplementedError


_backends: dict[str, Backend] = {}
_default_name: Optional[str] = None


def _cc_available() -> bool:
    from ..buildd import toolchain
    return toolchain.cc_available()


def get_backend(name: str) -> Backend:
    backend = _backends.get(name)
    if backend is None:
        if name == "c":
            from .c.runtime import CBackend
            backend = CBackend()
        elif name == "interp":
            from .interp.machine import InterpBackend
            backend = InterpBackend()
        else:
            raise CompileError(f"unknown backend {name!r} "
                               f"(available: 'c', 'interp')")
        _backends[name] = backend
    return backend


def default_backend() -> Backend:
    global _default_name
    if _default_name is None:
        _default_name = config.get("REPRO_TERRA_BACKEND") \
            or ("c" if _cc_available() else "interp")
    return get_backend(_default_name)


def set_default_backend(name: str) -> None:
    global _default_name
    get_backend(name)  # validate
    _default_name = name
    from ..exec.dispatch import reset_slots
    reset_slots()   # warm functions re-resolve on the new default


def resolve_backend(backend) -> Backend:
    if backend is None:
        return default_backend()
    if isinstance(backend, Backend):
        return backend
    if isinstance(backend, str):
        return get_backend(backend)
    raise CompileError(f"not a backend: {backend!r}")
