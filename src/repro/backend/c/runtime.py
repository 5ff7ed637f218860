"""The gcc-based JIT runtime.

The analog of Terra's LLVM JIT path: a connected component of typechecked
functions is emitted as one C translation unit, compiled to a shared
object with ``gcc -O3 -march=native``, loaded with ctypes, and cached so
identical code never rebuilds.

Compilation itself is owned by :mod:`repro.buildd` — the in-process
compile service with a thread pool, a content-addressed artifact cache
(keyed on source, flags, *and* compiler identity), in-flight request
dedup, and telemetry.  This module is the ctypes binding layer, plus
:meth:`CBackend.submit_unit`, whose ticket lets callers (the auto-tuner,
Orion) overlap compilation with other work.
"""

from __future__ import annotations

import ctypes
import weakref
from concurrent.futures import Future
from contextlib import contextmanager
from functools import cache, cached_property
from operator import attrgetter

from ... import config
from ... import trace as _trace
from ...buildd import get_service, toolchain
from ...core import types as T
from ...errors import (CompileError, FFIError, LinkError, TrapError,
                       TypeCheckError)
from ...trace.metrics import registry
from ...ffi import convert
from ...ffi.cdata import CPointer, CStruct
from ..base import Backend, CompileTicket, ExecutableHandle
from . import abi
from .emit import CEmitter, TRAP_MESSAGES


#: extra flags applied to subsequently-compiled units (see extra_cflags)
_EXTRA_CFLAGS: list[str] = []


@contextmanager
def extra_cflags(*flags: str):
    """Apply extra gcc flags to Terra units compiled inside the block.

    Used by the benchmark suite to emulate 2013-era compiler behaviour
    (``-fno-tree-vectorize``) when reproducing the paper's scalar
    baselines — modern gcc auto-vectorizes stencil loops that 2013
    compilers left scalar.

    Flags are captured when the unit is *submitted* for compilation (they
    are part of its cache key), so async compiles started inside the block
    keep the flags even if they finish after it exits.
    """
    _EXTRA_CFLAGS.extend(flags)
    try:
        yield
    finally:
        del _EXTRA_CFLAGS[len(_EXTRA_CFLAGS) - len(flags):]


#: trap-code cells at rest: a guarded call pops one (or makes one) and puts it
#: back zeroed, so nested calls (a pycallback calling Terra) and threads never
#: find one in use
_TRAP_CELLS: list = []


def _trap(code: int) -> TrapError:
    return TrapError(TRAP_MESSAGES.get(code, f"runtime trap {code}"))


def _guarded(centry):
    """A guarded C entry (``*_tentry`` / ``*_chunk``: trailing ``int32_t *``
    trap code) as ``run(*cargs)``: a nonzero code raises :class:`TrapError`,
    as in the interpreter, where bare C would SIGFPE/SIGILL the process.
    A call plan lends the cell inline, in the same protocol."""
    def run(*cargs):
        try:
            cell = _TRAP_CELLS.pop()
        except IndexError:
            cell = ctypes.c_int32()
        try:    # POINTER(c_int32) takes the cell by reference
            result = centry(*cargs, cell)
        finally:
            code = cell.value
            if code:
                cell.value = 0
            _TRAP_CELLS.append(cell)
        if code:
            raise _trap(code)
        return result

    return run


#: what the generated plans read as globals
_PLAN_SCOPE = {
    "_trace": _trace,
    "from_buffer": convert.NO_BYTES.from_buffer,
    "refused": (FFIError, ctypes.ArgumentError, TypeError),
    "cells": _TRAP_CELLS, "c_int32": ctypes.c_int32, "trap": _trap,
}


@cache      # per shape and process: a bind instantiates, never compiles
def _plan_factory(kinds: str, guarded: bool, returns: bool):
    """``make(run, from_c, checked, *converted)`` for a signature of this
    shape, written out a line per parameter, as ``sast._walker`` writes a
    walker.  ``kinds`` has a letter per parameter: ``s``
    a non-``bool`` scalar, handed to ctypes as it is; ``p`` a pointer,
    whose native ndarray goes to ctypes as its ``from_buffer`` object;
    ``c`` any other, through its converter.  ``converted`` is a converter
    per ``p``/``c`` position, then a dtype per ``p`` position."""
    names = [f"a{i}" for i in range(len(kinds))]
    convs = [f"conv{i}" for i, kind in enumerate(kinds) if kind != "s"]
    dtypes = [f"d{i}" for i, kind in enumerate(kinds) if kind == "p"]
    cargs = ", ".join(names + ["cell"] * guarded)
    params = ", ".join(["run", "from_c", "checked"] + convs + dtypes)
    code = [f"def make({params}):",
            "  def entry(*args):",
            f"    if len(args) != {len(kinds)} or _trace._runtime_active:",
            "        return checked(args)"]
    if names:
        code.append(f"    {', '.join(names)}, = args")
    code.append("    try:")
    for i, kind in enumerate(kinds):
        if kind == "p":     # keep{i}: the converter's keep-alives
            code += [f"        if type(a{i}) is ndarray and a{i}.dtype is d{i}:",
                     f"            a{i} = from_buffer(a{i})",
                     "        else:",
                     f"            keep{i} = []",
                     f"            a{i} = conv{i}(a{i}, keep{i})"]
        elif kind == "c":
            code.append(f"        a{i} = conv{i}(a{i}, None)")
    if guarded:
        code += ["        try:",
                 "            cell = cells.pop()",
                 "        except IndexError:",
                 "            cell = c_int32()",
                 "        try:",
                 f"            result = run({cargs})",
                 "        finally:",
                 "            code = cell.value",
                 "            if code:",
                 "                cell.value = 0",
                 "            cells.append(cell)"]
    else:
        code.append(f"        result = run({cargs})")
    code += ["    except refused:",
             "        return checked(args)"]
    if guarded:
        code += ["    if code:",
                 "        raise trap(code)"]
    code += [f"    return {'from_c(result)' if returns else 'result'}",
             "  return entry"]
    scope = dict(_PLAN_SCOPE)
    if "p" in kinds:    # its native-ndarray test: numpy loads with this shape
        from numpy import ndarray
        scope["ndarray"] = ndarray
    exec("\n".join(code), scope)     # noqa: S102
    return scope["make"]


class CompiledFunction(ExecutableHandle):
    """A Python-callable handle to one compiled Terra function.

    Calling it runs :attr:`entry`, its **call plan**, made at the first
    call from Python (most of a unit's functions only have Terra callers)
    and installed in the function's call slot as it is: the plan generated
    for its signature's shape (:func:`_plan_factory`), instantiated with
    this handle's C entry and converters.  ``cfn.argtypes`` wrap, round and
    type-check numbers as the converters do, so the plan hands ctypes a
    non-``bool`` scalar as it is, a native ndarray as its ``from_buffer``
    object (a pointer parameter is a ``c_void_p``), and converts only the
    other positions; :meth:`_invoke` decides what either refuses.  Every
    other caller — :meth:`_invoke` and the prepared callers — converts
    through the same per-type converters, which put what they converted in
    ``keep``: a prepared caller outlives the argument tuple it was made
    from."""

    def __init__(self, func, cfn, ftype: T.FunctionType, centry=None,
                 cchunk=None):
        self.func = func
        self.cfn = cfn
        self.centry = centry
        self.cchunk = cchunk   # chunked entry (mark_chunked), or None
        self.type = ftype

    @cached_property
    def converters(self):
        return [self._converter(ty) for ty in self.type.parameters]

    @cached_property
    def _run(self):     # C arguments -> Python result
        run = self.cfn if self.centry is None else _guarded(self.centry)
        from_c = self._returner(self.type.returntype)
        return run if from_c is None else lambda *cargs: from_c(run(*cargs))

    @cached_property
    def entry(self):
        """Python arguments -> result in one frame: this signature's shape's
        plan (:func:`_plan_factory`), instantiated with this handle's C
        entry, converters and dtypes and named after the function, so a
        keyword argument's ``TypeError`` names it too.  What the plan
        refuses — a read-only or strided array too — re-runs on the checked
        path."""
        kinds, converted, dtypes = [], [], []
        for ty, conv in zip(self.type.parameters, self.converters):
            if isinstance(ty, T.PrimitiveType) and not ty.islogical():
                kinds.append("s")
                continue
            kinds.append("p" if ty.ispointer() else "c")
            converted.append(conv)
            if ty.ispointer():
                dtypes.append(convert.native_dtypes().get(ty.pointee))
        from_c = self._returner(self.type.returntype)
        make = _plan_factory("".join(kinds), self.centry is not None,
                             from_c is not None)
        entry = make(self.cfn if self.centry is None else self.centry,
                     from_c, self._checked, *converted, *dtypes)
        entry.__name__ = entry.__qualname__ = self.func.name
        return entry

    def _checked(self, args):
        """The plan's fallback: :meth:`_invoke` behind the trace hook."""
        if not _trace._runtime_active:
            registry().add("exec.call.checked")
        return ExecutableHandle.__call__(self, *args)

    __call__ = property(attrgetter("entry"))    # tp_call: no frame of its own

    def _invoke(self, args):
        """The checked call: every argument through its converter."""
        cargs, keep = self._bind(args, self.converters)
        return self._run(*cargs)

    def _bind(self, args, converters):
        """``(cargs, keep)``: ``args`` through ``converters`` once, on the
        calling thread, with the keep-alives the conversions created."""
        if len(args) != len(converters):
            raise FFIError(f"{self.func.name}() takes {len(converters)} "
                           f"arguments, got {len(args)}")
        keep: list = []
        return [conv(value, keep)
                for conv, value in zip(converters, args)], keep

    # -- chunked dispatch (repro.parallel) -----------------------------------
    def chunk_caller(self, *args):
        """Bind ``args`` once and return a cheap ``run(lo, hi)`` callable
        executing the kernel's chunked entry over ``[lo, hi)``.

        This is what worker threads invoke: argument conversion (and the
        keepalives it creates) happens here, on the dispatching thread,
        so each chunk call is one plain ctypes foreign call — which
        releases the GIL for its whole duration.  A nonzero trap code is
        raised as :class:`TrapError` in the calling (worker) thread."""
        if self.cchunk is None:
            raise FFIError(
                f"{self.func.name}() has no chunked entry; call "
                f"fn.mark_chunked() before its first C compile")
        cargs, keep = self._bind(args, self.converters)
        cchunk = _guarded(self.cchunk)

        def run(lo: int, hi: int, _keep=keep):
            cchunk(lo, hi, *cargs)

        run.kernel_name = self.func.name
        return run

    def tail_caller(self, nlead: int, *tailargs):
        """Bind every parameter after the first ``nlead`` (integer)
        leading ones and return a cheap ``run(*lead)`` callable.

        Orion's strip dispatch uses this: the image buffers convert to
        pointers once per pipeline call, and each per-worker strip call
        is then one plain ctypes foreign call (GIL released) with only
        the ``gsel/wid/ylo/yhi`` scalars built per call."""
        cargs, keep = self._bind(tailargs, self.converters[nlead:])
        leading, entry = self.converters[:nlead], self._run

        def run(*lead, _keep=keep):
            lc, lkeep = self._bind(lead, leading)
            entry(*lc, *cargs)

        run.kernel_name = self.func.name
        return run

    def call_chunk(self, lo: int, hi: int, *args):
        """Run the chunked entry once over ``[lo, hi)`` (serial use)."""
        self.chunk_caller(*args)(lo, hi)

    @staticmethod
    @cache      # per type (as immortal as its FunctionTypes), not per handle
    def _converter(ty: T.Type):
        """``convert(value, keep) -> C argument`` for a ``ty`` parameter."""
        if isinstance(ty, T.PrimitiveType):
            return lambda value, keep: convert.python_to_primitive(value, ty)
        if ty.ispointer():     # argtypes is c_void_p: an int is the argument
            def to_pointer(value, keep):
                addr, keepalive = convert.pointer_address(value, ty)
                keep.append(keepalive)
                return addr
            return to_pointer
        if ty.isaggregate():
            cls = abi.ctype_for(ty)
            return lambda value, keep: cls.from_buffer_copy(
                convert.python_to_blob(value, ty))
        raise FFIError(f"cannot pass {ty} from Python")

    @staticmethod
    @cache
    def _returner(ty: T.Type):
        """``from_c(result) -> Python value`` for a C value of type ``ty``;
        None where ctypes already hands that back (numbers, unit)."""
        if isinstance(ty, T.PrimitiveType):
            return bool if ty.islogical() else None     # c_uint8 reads an int
        if ty.ispointer():
            return lambda result: CPointer(ty, int(result))
        if isinstance(ty, T.TupleType):
            return None if ty.isunit() else \
                lambda result: CStruct(ty, bytes(result)).totuple()
        if ty.isaggregate():
            return lambda result: CStruct(ty, bytes(result))
        raise FFIError(f"cannot return {ty} to Python")


class CBackend(Backend):
    name = "c"

    def __init__(self):
        self._libs: dict[str, ctypes.CDLL] = {}     # .so path -> its CDLL
        #: entry fn -> (key, C source, C names): see _emit; a unit bound from
        #: the structural memo is (("memo", level), artifact key, None) — its
        #: text is the artifact's unit_<key>.c: see emit_source
        self._units = weakref.WeakKeyDictionary()
        self._globals: dict[int, tuple] = {}   # glob.uid -> (buffer, addr)
        self._callbacks: dict[int, tuple] = {}  # cb.uid -> (wrapper, addr)

    # -- compilation -------------------------------------------------------------
    def _level(self) -> int:
        from ...passes import resolve_level
        return resolve_level(self.pipeline_level)

    def _emit(self, fn, component):
        """``(source, names)`` of ``fn``'s component — the C text and each
        member's C name (``uid -> name``) — emitted once and remembered, so
        ``get_c_source()`` shows the text that was compiled.  Only the
        pipeline level and ``mark_chunked()`` can move it: the key."""
        key = (self._level(), tuple(f.emit_chunk for f in component))
        unit = self._units.get(fn)
        if unit is None or unit[0] != key:
            with _trace.span(f"emit:{fn.name}", cat="emit", backend="c",
                             component_size=len(component)) as sp:
                emitter = CEmitter(component, self)
                source = emitter.emit_unit()
                sp.set(c_bytes=len(source))
            unit = self._units[fn] = (key, source, emitter.fn_names)
        return unit[1], unit[2]

    def submit_unit(self, fn, component, memo=None):
        """Submit the unit to the buildd pool; the ticket's ``result()``
        binds the shared object and yields ``fn``'s callable handle.

        Source emission and flag capture happen synchronously (in the
        caller's thread, so :func:`extra_cflags` blocks behave), only the
        compiler run overlaps."""
        source, names = self._emit(fn, component)
        bound = [(f, names[f.uid], f.typed.type)
                 for f in component if not f.is_external]
        future = get_service().compile_async(
            source, tuple(_EXTRA_CFLAGS),
            memo and self._memo_record(*memo, bound))
        return CompileTicket(future, lambda so: self._bind_unit(fn, bound, so))

    # -- the structural memo (repro.core.linker.ensure_compiled) ------------------
    def memoized_unit(self, fn):
        with _trace.span(f"memo:{fn.name}", cat="link") as sp:
            consulted = self._consult_memo(fn)
            sp.set(outcome=consulted[0])
        return consulted

    def _consult_memo(self, fn):
        from ...core.linker import pipelined_component, structural_digest
        service = get_service()
        # what outside the trees can move the C or the .so: the level, the
        # pass knobs and — the key of the empty unit — every flag + compiler
        members, digest = structural_digest(fn, repr((
            self._level(), service.flags_key(tuple(_EXTRA_CFLAGS)),
            [config.get("REPRO_TERRA_" + name)
             for name in ("DISABLE_PASSES", "VEC_BYTES")])))
        if members is None:
            return f"ineligible:{digest}", None, None
        memo = (digest, members)
        found = service.cache.memo(digest)
        if found is None:
            return "miss", None, memo
        try:
            key, (sources, rows) = found
            if sources != toolchain.package_fingerprint():
                raise ValueError("written by other sources")
            bound = [(f, str(name), T.FunctionType(
                         f.param_types, [T.decode(t) for t in returns]))
                     for f, (name, returns) in zip(
                         (f for f in members if not f.is_external), rows,
                         strict=True)]
        except (ValueError, TypeError, LookupError):
            return "stale", None, memo      # a record that does not decode
        so_path = service.fetch(key)
        if so_path is None:
            return "stale", None, memo      # ... or outlived its artifact
        self._units[fn] = (("memo", self._level()), key, None)
        if config.get("REPRO_TERRA_VERIFY_IR"):
            # the safety net: derive the unit the slow way and demand the
            # bytes the artifact was compiled from (its key hashes them)
            source, _ = self._emit(
                fn, pipelined_component(fn, self, memo="verify"))
            if service.key_for(source, tuple(_EXTRA_CFLAGS)) != key:
                raise CompileError(
                    f"structural memo: {fn.name!r} was bound to "
                    f"{service.cache.source_path(key)}, but its typed IR "
                    f"emits other C — two components share a digest")
        built: Future = Future()
        built.set_result(so_path)
        return "hit", CompileTicket(
            built, lambda so: self._bind_unit(fn, bound, so)), memo

    def _memo_record(self, digest, members, bound):
        """``(digest, record)`` for the artifact's memo file — the sources'
        fingerprint, then each defined member's C name and return types in
        the digest's order — or None, and nothing is remembered, when the
        digest's members are not the unit's or a type does not spell."""
        unit = {f.uid: (name, ftype.returns) for f, name, ftype in bound}
        try:
            rows = [[name, [T.encode(t) for t in returns]] for name, returns
                    in (unit[f.uid] for f in members if not f.is_external)]
        except (KeyError, TypeCheckError):
            rows = ()
        if len(rows) != len(unit):
            registry().add("spec.memo.ineligible.unit")
            return None
        return digest, [toolchain.package_fingerprint(), rows]

    def _bind_unit(self, fn, bound, so_path):
        """ctypes-load a compiled unit and cache handles for every function
        in it — ``bound`` lists them as ``(function, C name, FunctionType)``
        — and return the entry function's handle.  Safe to call twice for
        the same unit (handles install with setdefault)."""
        with _trace.span(f"bind:{fn.name}", cat="bind",
                         so=so_path.rsplit("/", 1)[-1],
                         component_size=len(bound)):
            return self._bind_unit_traced(fn, bound, so_path)

    def _bind_unit_traced(self, fn, bound, so_path):
        # one CDLL per path; lib[name] makes this bind its own function
        lib = self._libs.get(so_path)
        if lib is None:
            try:    # a unit's externals bind here, against this process
                lib = ctypes.CDLL(so_path)
            except OSError as exc:
                if "undefined symbol" not in str(exc):
                    raise       # no file (evicted since), or a damaged one
                raise LinkError(f"{fn.name}: its unit does not bind in this "
                                f"process: {exc}") from None
            lib = self._libs.setdefault(so_path, lib)
        entry_handle = None
        for f, cname, ftype in bound:
            cfn = lib[cname]
            cfn.restype = abi.ctype_for(ftype.returntype)
            cfn.argtypes = [abi.argtype_for(p) for p in ftype.parameters]
            try:
                centry = lib[cname + "_tentry"]
            except AttributeError:
                centry = None  # unit has no trappable operations
            if centry is not None:
                centry.restype = cfn.restype
                centry.argtypes = list(cfn.argtypes) + \
                    [ctypes.POINTER(ctypes.c_int32)]
            cchunk = None
            if getattr(f, "emit_chunk", False):
                cchunk = lib[cname + "_chunk"]
                cchunk.restype = None
                cchunk.argtypes = [ctypes.c_int64, ctypes.c_int64] + \
                    list(cfn.argtypes) + [ctypes.POINTER(ctypes.c_int32)]
            handle = f.dispatcher.install(
                self.name, CompiledFunction(f, cfn, ftype, centry, cchunk))
            if f is fn:
                entry_handle = handle
        if entry_handle is None:
            raise CompileError(
                f"entry function {fn.name!r} not found in compiled unit")
        return entry_handle

    def emit_source(self, fn) -> str:
        """The C source for ``fn``'s connected component (for inspection,
        tests, and saveobj), after the same IR pipeline a real compile
        would run — for a unit bound from the structural memo, the
        artifact's own ``unit_<key>.c`` while that file exists."""
        unit = self._units.get(fn)
        if unit is not None and unit[0] == ("memo", self._level()):
            try:
                with open(get_service().cache.source_path(unit[1])) as f:
                    return f.read()
            except OSError:
                pass    # evicted since: derive it
        from ...core.linker import pipelined_component
        return self._emit(fn, pipelined_component(fn, self))[0]

    # -- globals ----------------------------------------------------------------
    def materialize_global(self, glob):
        entry = self._globals.get(glob.uid)
        if entry is None:
            ty = glob.type
            size, align = ty.layout()
            buf = ctypes.create_string_buffer(size + align)
            base = ctypes.addressof(buf)
            addr = (base + align - 1) & ~(align - 1)
            entry = (buf, addr)
            self._globals[glob.uid] = entry
            if glob.init is not None:
                self._write_at(addr, glob.init, ty)
            else:
                ctypes.memset(addr, 0, size)
        return entry

    def global_address(self, glob) -> int:
        return self.materialize_global(glob)[1]

    def _write_at(self, addr: int, value, ty: T.Type) -> None:
        blob = convert.python_to_blob(value, ty)
        ctypes.memmove(addr, blob, len(blob))

    def read_global(self, glob):
        addr = self.global_address(glob)
        raw = ctypes.string_at(addr, glob.type.sizeof())
        return convert.blob_to_python(raw, glob.type)

    def write_global(self, glob, value) -> None:
        self._write_at(self.global_address(glob), value, glob.type)

    # -- Python callbacks --------------------------------------------------------
    def callback_address(self, callback) -> int:
        entry = self._callbacks.get(callback.uid)
        if entry is None:
            ftype = callback.type
            restype = abi.ctype_for(ftype.returntype)
            if ftype.returntype.isaggregate():
                raise FFIError(
                    "Python callbacks cannot return aggregates by value")
            argtypes = [abi.ctype_for(p) for p in ftype.parameters]
            cfunctype = ctypes.CFUNCTYPE(restype, *argtypes)
            from_c = [CompiledFunction._returner(p) for p in ftype.parameters]

            def trampoline(*raw_args, _cb=callback, _ftype=ftype):
                result = _cb.fn(*[a if conv is None else conv(a)
                                  for conv, a in zip(from_c, raw_args)])
                if isinstance(_ftype.returntype, T.TupleType) \
                        and _ftype.returntype.isunit():
                    return None
                if _ftype.returntype.ispointer():
                    addr, _ = convert.pointer_address(result, _ftype.returntype)
                    return addr
                return result

            wrapper = cfunctype(trampoline)
            addr = ctypes.cast(wrapper, ctypes.c_void_p).value
            entry = (wrapper, addr)
            self._callbacks[callback.uid] = entry
            callback._ctypes_wrapper = wrapper
        return entry[1]
