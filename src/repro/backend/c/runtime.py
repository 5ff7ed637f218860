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
import itertools
import os
import sys
import weakref
from concurrent.futures import Future
from contextlib import contextmanager
from functools import cache, cached_property, partial
from operator import attrgetter

from ... import config
from ... import trace as _trace
from ...buildd import get_service, toolchain
from ...core import types as T
from ...errors import (CompileError, FFIError, LinkError, TrapError,
                       TypeCheckError)
from ...trace.metrics import registry
from ...ffi import convert
from ..base import Backend, CompileTicket, ExecutableHandle
from . import abi, native
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


def _trap(code: int):
    raise TrapError(TRAP_MESSAGES.get(code, f"runtime trap {code}"))


def _guarded(centry):
    """A guarded C entry (``*_tentry``: trailing ``int32_t *`` trap code)
    as ``run(*cargs)``: a nonzero code raises :class:`TrapError`,
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
            _trap(code)
        return result

    return run


#: what the generated plans read as globals
_PLAN_SCOPE = {
    "_trace": _trace,
    "from_buffer": convert.NO_BYTES.from_buffer,
    "refused": (FFIError, ctypes.ArgumentError, TypeError),
    "cells": _TRAP_CELLS, "c_int32": ctypes.c_int32, "trap": _trap,
    "count": itertools.count,
}

WARM_CALLS = 10     # the counted call that takes the shape unit's ticket
#: the tracing/profiling switch as the C ``int`` native entries read
_ACTIVE = _trace._runtime_switch = ctypes.c_int(_trace._runtime_active)

_dlopen = ctypes.CDLL(None).dlopen     # libc's: ctypes drops the GIL for it
_dlopen.restype = ctypes.c_void_p
#: compile service -> {shape: its unit's CompileTicket}
_SHAPE_UNITS = weakref.WeakKeyDictionary()
#: a shape unit's ABI tag and include dir: sysconfig's SOABI and INCLUDEPY
#: (its data costs ms of GIL), from ``sys`` as CPython lays them out
_HEADERS = ("%s%s-%s" % (sys.implementation.cache_tag, sys.abiflags, getattr(
                sys.implementation, "_multiarch", sys.platform)),
            os.path.join(sys.base_prefix, "include", "python%d.%d%s" % (
                *sys.version_info[:2], sys.abiflags)))


def _load(path: str):   # a shape unit's mapper: its make, loaded once
    make = ctypes.PyDLL(path, handle=_dlopen(path.encode(), os.RTLD_NOW)).make
    make.restype = ctypes.py_object
    return make


def _climb(shape, ref) -> None:
    """A scalar plan's WARM_CALLS-th counted call takes the ticket of
    ``shape``'s unit (:mod:`.native`), joined only under ``sync``; what
    stops it is counted, and the handle keeps its plan."""
    from ...exec import current_policy
    try:
        units = _SHAPE_UNITS.setdefault(service := get_service(), {})
        if shape not in units:  # (no Python.h: a failed build like any other)
            ticket = CompileTicket(service.compile_async(native.source(
                shape, _HEADERS[0]), ("-I" + _HEADERS[1],)), _load)
            if units.setdefault(shape, ticket) is ticket:   # one per shape
                ticket.add_done_callback(_install)
        unit = units[shape]
        if getattr(current_policy(), "sync", False):
            _install(unit, ref)
        else:
            unit.add_done_callback(partial(_install, ref=ref))
    except Exception:
        registry().add("exec.entry.native_failed")


def _install(unit, ref=None) -> None:
    """The unit's entry for the handle's plan, in handle and slot; without
    ``ref``, load it.  A failure counts once: the build's without ``ref``
    (nothing retries), ``make``'s with its handle, which keeps its plan."""
    make = None
    try:
        make = unit.result()
        if (handle := ref and ref()) is not None:
            plan = handle.entry
            handle.entry = make(
                handle.func.name.encode(), handle.centry or handle.cfn,
                ctypes.py_object(plan), ctypes.py_object(_trap),
                ctypes.byref(_ACTIVE))
            handle.func.dispatcher.set_target(handle.entry, plan)
            registry().add("exec.entry.native")
    except Exception:
        if ref is None or make is not None:
            registry().add("exec.entry.native_failed")


@cache      # per shape and process: a bind instantiates, never compiles
def _plan_factory(kinds: str, guarded: bool, returns: bool, warm: bool):
    """``make(run, from_c, checked, *converted)`` for a signature of this
    shape, written out a line per parameter, as ``sast._walker`` writes a
    walker.  ``kinds`` has a letter per parameter: ``s``
    a non-``bool`` scalar, handed to ctypes as it is; ``p`` a pointer,
    whose native ndarray goes to ctypes as its ``from_buffer`` object;
    ``c`` any other, through its converter.  ``converted`` is a converter
    per ``p``/``c`` position, a dtype per ``p`` position, then ``warm``."""
    names = [f"a{i}" for i in range(len(kinds))]
    convs = [f"conv{i}" for i, kind in enumerate(kinds) if kind != "s"]
    dtypes = [f"d{i}" for i, kind in enumerate(kinds) if kind == "p"]
    cargs = ", ".join(names + ["cell"] * guarded)
    params = ", ".join(["run", "from_c", "checked"] + convs + dtypes
                       + ["warm"] * warm)
    code = [f"def make({params}):"] + ["  tick = count(1).__next__"] * warm
    code += ["  def entry(*args):",
             f"    if len(args) != {len(kinds)} or _trace._runtime_active:",
             "        return checked(args)"]
    code += [f"    if tick() == {WARM_CALLS}: warm()"] * warm
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
                 "        trap(code)"]
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

    Calling it runs :attr:`entry`: the call plan generated for its
    signature's shape (:func:`_plan_factory`), made at the first call from
    Python (most of a unit's functions only have Terra callers) and
    installed in the call slot as it is — or, for a scalar signature once
    its shape unit has loaded, the native entry (:mod:`.native`).  Every
    other caller — :meth:`_invoke` and the prepared caller
    (:meth:`~repro.backend.base.ExecutableHandle.tail_caller`) — converts
    through the per-type converters, which put what they converted in
    ``keep``: a prepared caller outlives the argument tuple it was made
    from."""

    def __init__(self, func, cfn, ftype: T.FunctionType, centry=None):
        self.func = func
        self.cfn = cfn
        self.centry = centry
        self.type = ftype

    @cached_property
    def _centry(self):  # C arguments -> C result, a trap raised
        return self.cfn if self.centry is None else _guarded(self.centry)

    def _run(self, args, cargs, keep):
        return self._centry(*cargs)

    @cached_property
    def entry(self):
        """Python arguments -> result in one frame: this signature's shape's
        plan (:func:`_plan_factory`), instantiated with this handle's C
        entry, converters and dtypes and named after the function, so a
        keyword argument's ``TypeError`` names it too.  What the plan
        refuses — a read-only or strided array too — re-runs on the checked
        path, and a scalar plan's 10th counted call climbs (:func:`_climb`)."""
        kinds, converted, dtypes = [], [], []
        for ty, conv in zip(self.type.parameters, self.converters):
            if isinstance(ty, T.PrimitiveType) and not ty.islogical():
                kinds.append("s")
                continue
            kinds.append("p" if ty.ispointer() else "c")
            converted.append(conv)
            if ty.ispointer():
                dtypes.append(convert.native_dtypes().get(ty.pointee))
        shape = native.shape(self.type, self.centry is not None)
        make = _plan_factory("".join(kinds), self.centry is not None,
                             self._read is not None, shape is not None)
        entry = make(self.centry or self.cfn, self._read, self._checked,
                     *converted, *dtypes, *[partial(
                         _climb, shape, weakref.ref(self))] * bool(shape))
        entry.__name__ = entry.__qualname__ = self.func.name
        return entry

    def _checked(self, args):
        """The plan's fallback: :meth:`_invoke` behind the trace hook."""
        if not _trace._runtime_active:
            registry().add("exec.call.checked")
        return ExecutableHandle.__call__(self, *args)

    __call__ = property(attrgetter("entry"))    # tp_call: no frame of its own


class CBackend(Backend):
    name = "c"

    def __init__(self):
        self._libs: dict[str, ctypes.CDLL] = {}     # .so path -> its CDLL
        #: entry fn -> (key, C source, C names): see _emit; a unit bound from
        #: the structural memo is (("memo", level), artifact key, None) — its
        #: text is the artifact's unit_<key>.c: see emit_source
        self._units = weakref.WeakKeyDictionary()

    # -- compilation -------------------------------------------------------------
    def _level(self) -> int:
        from ...passes import resolve_level
        return resolve_level(self.pipeline_level)

    def _emit(self, fn, component):
        """``(source, names)`` of ``fn``'s component — the C text and each
        member's C name (``uid -> name``) — emitted once and remembered, so
        ``get_c_source()`` shows the text that was compiled.  Only the
        pipeline level can move it: the key."""
        key = self._level()
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
            handle = f.dispatcher.install(
                self.name, CompiledFunction(f, cfn, ftype, centry))
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
