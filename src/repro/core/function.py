"""Terra functions: declaration, definition, lazy typechecking, JIT.

The lifecycle follows the paper exactly:

* ``declare()`` creates an *undefined* function (the paper's ``tdecl``) —
  an address that other functions may reference before it has a body;
* defining (``ter l(x:T):T { e }``) specializes the body **eagerly** and
  attaches it; a function can be defined only once (definitions are
  immutable, which is what makes typechecking monotonic, §4.1);
* typechecking and linking run **lazily**: the first time a function is
  called (or referenced by a called function), its whole connected
  component of references is typechecked (paper Figure 4);
* compilation happens per backend on first call, and the result is cached.
"""

from __future__ import annotations

import itertools
import operator
from functools import cached_property
from typing import Optional, Sequence

from ..errors import FFIError, SpecializeError, TypeCheckError
from ..exec.dispatch import Dispatcher
from . import sast
from . import types as T
from .symbols import Symbol

_func_ids = itertools.count(1)


class TerraFunction:
    """A Terra function object (the paper's function address ``l``)."""

    is_terra_function = True

    #: which frontend produced the definition — "string" for the
    #: Lua-Terra parser (the default), "pyast" for the @terra decorator
    #: (overridden per instance; see docs/FRONTENDS.md)
    frontend = "string"

    UNDEFINED = "undefined"
    DEFINED = "defined"

    def __init__(self, name: str = "anon", location=None):
        self.uid = next(_func_ids)
        self.name = name
        self.location = location
        self.state = self.UNDEFINED
        # definition payload (present when state == DEFINED)
        self.param_symbols: list[Symbol] = []
        self.param_types: list[T.Type] = []
        self.declared_rettype: Optional[T.Type] = None
        self.body: Optional[sast.SBlock] = None
        self.fingerprint: Optional[sast.Fingerprint] = None
        # external (C) functions have a type and symbol name but no body
        self.external_name: Optional[str] = None
        self.external_type: Optional[T.FunctionType] = None
        # lazy results
        self.typed = None            # TypedFunction after typechecking
        self._type: Optional[T.FunctionType] = None
        self._typecheck_error: Optional[Exception] = None
        # all call/compile state (per-backend handles, pending tickets,
        # tiering) lives on the dispatcher — see repro.exec
        self.dispatcher = Dispatcher(self)

    # -- definition ------------------------------------------------------------
    def define(self, param_symbols: Sequence[Symbol],
               param_types: Sequence[T.Type],
               rettype: Optional[T.Type], body: sast.SBlock) -> "TerraFunction":
        """Attach a specialized definition (the paper's LTDEFN rule).

        Functions may be defined exactly once: LTDEFN requires the target
        to be undefined, which keeps typechecking monotonic.
        """
        if self.state != self.UNDEFINED:
            raise SpecializeError(
                f"Terra function {self.name!r} is already defined; "
                f"definitions are immutable")
        # every frontend funnels through here — enforce the frontend↔IR
        # contract (docs/FRONTENDS.md) before accepting the definition; the
        # same walk fingerprints it for the linker's structural memo
        params, ptypes = list(param_symbols), list(param_types)
        self.fingerprint = sast.validate_definition(params, ptypes, rettype,
                                                    body)
        self.param_symbols = params
        self.param_types = ptypes
        self.declared_rettype = rettype
        self.body = body
        self.state = self.DEFINED
        if rettype is not None:
            rets = [] if (isinstance(rettype, T.TupleType) and rettype.isunit()) \
                else ([rettype] if not isinstance(rettype, T.TupleType)
                      else list(rettype.element_types))
            self._type = T.FunctionType(self.param_types, rets)
        return self

    @classmethod
    def external(cls, name: str, ftype: T.FunctionType,
                 symbol_name: Optional[str] = None) -> "TerraFunction":
        """An externally-implemented (C) function: has a type, no body."""
        fn = cls(name)
        fn.state = cls.DEFINED
        fn.external_name = symbol_name or name
        fn.external_type = ftype
        fn._type = ftype
        fn.param_types = list(ftype.parameters)
        return fn

    @property
    def is_external(self) -> bool:
        return self.external_name is not None

    def isdefined(self) -> bool:
        return self.state == self.DEFINED

    # -- typechecking (lazy) -------------------------------------------------------
    def gettype(self) -> T.FunctionType:
        """The function's type; typechecks if the return type is inferred."""
        if self._type is not None:
            return self._type
        self.ensure_typechecked()
        assert self._type is not None
        return self._type

    def ensure_typechecked(self) -> None:
        """Typecheck this function's connected component (paper Fig. 4)."""
        from .linker import ensure_typechecked
        ensure_typechecked(self)

    def peektype(self) -> Optional[T.FunctionType]:
        return self._type

    # -- compilation & calling ---------------------------------------------------
    # The mechanics live on ``self.dispatcher`` (repro.exec): TerraFunction
    # keeps only the thin public API.

    def compile(self, backend=None):
        """Compile (JIT) on ``backend`` and return a callable handle.

        If an async compile was started earlier (:meth:`compile_async`),
        this joins it instead of compiling again — with the flags that
        were in effect at submission time.
        """
        return self.dispatcher.compiled_handle(backend)

    def compile_async(self, backend=None):
        """Start compiling on ``backend`` without waiting: the unit is
        emitted now (capturing the current compile flags) and built on the
        :mod:`repro.buildd` pool; returns a ``CompileTicket`` whose
        ``result()`` yields the callable handle.

        A later :meth:`compile` or direct call joins the pending build, so
        ``fn.compile_async(); ...; fn(x)`` never compiles twice.
        """
        return self.dispatcher.compile_async(backend)

    #: Calling from Python runs the dispatcher's call slot, read in C (no
    #: frame of its own): by default the entry of the handle JIT-compiled on
    #: the default backend, which converts via the FFI (the LTAPP rule).
    __call__ = property(operator.attrgetter("dispatcher.target"))

    # -- parallel dispatch (repro.parallel) ---------------------------------------
    @cached_property
    def chunked(self) -> "TerraFunction":
        """This loop kernel's iterates in ``[lo, hi)``, staged as
        ``<name>_chunk(lo : int64, hi : int64, <params>)`` — the kernel
        :func:`repro.parallel.parallel_for` hands each worker a range of.

        Its body is this function's specialized one: the statements before
        the **final top-level loop** (they run in every chunk, so they must
        be cheap and idempotent), then that loop with its start and limit
        clamped to ``[lo, hi)`` in the loop variable's type; a strided
        start advances to the first iterate ``>= lo``, so any cuts run
        exactly the serial iterates.  A scheduled function's twin carries
        its schedule minus ``Parallel``.  An ordinary function: every
        backend and tier runs it."""
        from ..parallel import stage_chunked
        return stage_chunked(self)

    # -- inspection (Terra's printpretty / disas) -----------------------------
    def printpretty(self, typed: bool = False) -> str:
        """Render the specialized (or, with ``typed=True``, the typed)
        form of this function as Terra-like source and print it."""
        from .prettyprint import format_specialized, format_typed
        text = format_typed(self) if typed else format_specialized(self)
        print(text)
        return text

    def get_source(self, typed: bool = False) -> str:
        """Like :meth:`printpretty` but returns the text without printing."""
        from .prettyprint import format_specialized, format_typed
        return format_typed(self) if typed else format_specialized(self)

    def get_c_source(self) -> str:
        """The C translation unit the gcc backend compiles for this
        function's connected component (the analog of Terra's ``disas``)."""
        from ..backend.base import get_backend
        return get_backend("c").emit_source(self)

    def get_optimized_ir(self, level: Optional[int] = None) -> str:
        """The typed IR after the :mod:`repro.passes` pipeline — what both
        backends actually compile.  ``level`` picks a pipeline level
        (default: the one both backends read); the tree is returned at exactly
        that level, whatever other levels were built before it."""
        from ..passes import pipelined_body
        from .prettyprint import format_typed_ir
        self.ensure_typechecked()
        assert self.typed is not None
        body = pipelined_body(self.typed, level)
        return format_typed_ir(self.typed, body=body)

    def report(self, print_: bool = True):
        """Runtime profile of this function's compiled handle(s): call
        count, total wall seconds, min/mean/max per call.  Populated when
        :mod:`repro.trace.profile` is on (``REPRO_TERRA_PROFILE=1``);
        returns None (and says so) if the function was never profiled."""
        from ..trace import profile
        stats = profile.stats_for(self)
        if print_:
            if stats is None:
                print(f"{self.name}: no profiled calls "
                      f"(set REPRO_TERRA_PROFILE=1 or call "
                      f"repro.trace.profile.enable())")
            else:
                print(f"{self.name}: {stats['calls']} calls, "
                      f"{stats['seconds']:.6f}s total, "
                      f"min/mean/max "
                      f"{stats['min'] * 1e6:.2f}/"
                      f"{stats['mean'] * 1e6:.2f}/"
                      f"{stats['max'] * 1e6:.2f} us")
        return stats

    def __repr__(self) -> str:
        ty = self._type if self._type is not None else "<untypechecked>"
        return f"terra {self.name}: {ty} [{self.state}]"


def declare(name: str = "anon") -> TerraFunction:
    """Create an undefined Terra function (the paper's ``tdecl``) for
    forward references and mutual recursion."""
    return TerraFunction(name)


class GlobalVar:
    """A Terra global variable (the full language's ``global()``).

    Its storage is one aligned process buffer, made and initialized (zero
    without ``init``) here: the C backend compiles its :attr:`address`
    into the code, the interpreter reads and writes the same bytes, and
    :meth:`get`/:meth:`set` read and write them from Python, so every
    backend and tier sees one value — an address too, as both backends
    share the process's address space.
    """

    is_terra_global = True
    _ids = itertools.count(1)

    def __init__(self, type: T.Type, init=None, name: str = "g"):  # noqa: A002
        if not isinstance(type, T.Type):
            raise TypeCheckError(f"global() requires a Terra type, got {type!r}")
        import ctypes   # with the first global, not with `import repro`
        self.uid = next(self._ids)
        self.type = type
        self.init = init
        self.name = f"{name}{self.uid}"
        size, align = type.layout()
        self._storage = ctypes.create_string_buffer(size + align)
        base = ctypes.addressof(self._storage)
        #: the process address of its bytes
        self.address = (base + align - 1) & ~(align - 1)
        if init is not None:
            self.set(init)

    def get(self):
        import ctypes
        from ..ffi import convert
        return convert.blob_to_python(
            ctypes.string_at(self.address, self.type.sizeof()), self.type)

    def set(self, value) -> None:
        import ctypes
        from ..ffi import convert
        blob = convert.python_to_blob(value, self.type)
        ctypes.memmove(self.address, blob, len(blob))

    def __repr__(self) -> str:
        return f"global {self.name} : {self.type}"


def global_(type: T.Type, init=None, name: str = "g") -> GlobalVar:  # noqa: A002
    return GlobalVar(type, init, name)


class Constant:
    """A typed Terra constant (``terralib.constant(type, value)``);
    embeds as a literal during specialization."""

    is_terra_constant = True

    def __init__(self, type: T.Type, value):  # noqa: A002
        if not isinstance(type, T.Type):
            raise TypeCheckError(f"constant() requires a Terra type, got {type!r}")
        self.type = type
        self.value = value

    def __repr__(self) -> str:
        return f"constant({self.type}, {self.value!r})"


def constant(type: T.Type, value) -> Constant:  # noqa: A002
    return Constant(type, value)


class PyCallback:
    """A Python function with an explicit Terra function type, callable
    from Terra code — the analog of wrapping a Lua function through
    LuaJIT's FFI (paper §4.2, cross-language interoperability)."""

    is_terra_callback = True
    _ids = itertools.count(1)

    def __init__(self, ftype: T.FunctionType, fn):
        if not isinstance(ftype, T.FunctionType):
            raise TypeCheckError(
                f"pycallback() requires a Terra function type, got {ftype!r}")
        rettype = ftype.returntype
        if rettype.isaggregate() and not (isinstance(rettype, T.TupleType)
                                          and rettype.isunit()):
            raise FFIError("Python callbacks cannot return aggregates by value")
        self.uid = next(self._ids)
        self.type = ftype
        self.fn = fn
        self.name = f"pycb_{getattr(fn, '__name__', 'fn')}_{self.uid}"

    def __call__(self, *args):
        return self.fn(*args)

    def __repr__(self) -> str:
        return f"pycallback({self.type}, {self.fn!r})"


def pycallback(ftype: T.FunctionType, fn) -> PyCallback:
    return PyCallback(ftype, fn)
