"""The reference interpreter — Terra's ``→T`` judgment, executable.

Evaluates typed IR directly.  Every local variable lives on a stack in
process memory, and every address is the process address compiled code
would use (:mod:`repro.memory.flatmem`), so address-of, pointer
arithmetic and aliasing behave exactly as in compiled code, and every
access is bounds- and liveness-checked (:class:`~repro.errors.TrapError`
instead of undefined behaviour).

This backend exists for three reasons: differential testing of the gcc
backend, running on hosts without a C compiler, and giving checked
semantics to the memory-safety test suite.  It is *not* the performance
path.
"""

from __future__ import annotations

import ctypes
import math
import sys
import threading

from ... import trace as _trace
from ...core import tast
from ...core import types as T
from ...core.function import PyCallback, TerraFunction
from ...core.symbols import Symbol
from ...errors import CompileError, TrapError
from ...ffi import convert
from ...memory.allocator import Allocator
from ...memory.flatmem import Memory, libc
from ...memory.layout import TypedMemory, pack_value, unpack_value, zero_value
from ...passes import pipelined_body, resolve_level
from ..base import Backend, CompileTicket, ExecutableHandle
from ..c import abi
from . import values as V
from .builtins import BUILTINS


class _BreakSignal(Exception):
    pass


class _ReturnSignal(Exception):
    def __init__(self, value):
        self.value = value


class Frame:
    """One activation: symbol -> (address, type) slots on the stack."""

    def __init__(self, machine: "Machine", level: int):
        self.memory = machine.memory
        self.level = level      # the pipeline level this activation reads
        self.slots: dict[Symbol, tuple[int, T.Type]] = {}
        self.regions = []       # its live stack slots, in push order

    def declare(self, symbol: Symbol, ty: T.Type) -> int:
        size, align = ty.layout()
        region = self.memory.push(max(size, 1), max(align, 1))
        self.slots[symbol] = (region.start, ty)
        self.regions.append(region)
        return region.start

    def addr_of(self, symbol: Symbol) -> tuple[int, T.Type]:
        slot = self.slots.get(symbol)
        if slot is None:
            raise TrapError(f"variable {symbol!r} has no storage (used "
                            f"outside its defining function?)")
        return slot

    def release(self, depth: int = 0) -> None:
        """Pop every slot declared since the frame had ``depth``."""
        self.memory.pop(self.regions[depth:])
        del self.regions[depth:]


class Machine:
    """The interpreter state shared by all functions of a backend."""

    def __init__(self, backend: "InterpBackend"):
        self.backend = backend
        self.memory = backend.memory
        self.allocator = backend.allocator
        self.typed = TypedMemory(self.memory)
        self._strings: dict[str, int] = {}
        #: function or callback -> (its callable address, what keeps that
        #: alive), and back: the addresses this machine hands out
        self._code: dict[object, tuple[int, object]] = {}
        self._fn_at: dict[int, object] = {}
        self.stdout_chunks: list[str] = []
        # each Terra frame costs ~20 Python frames; keep the product
        # safely under CPython's recursion limit
        self.max_call_depth = 200
        self._depth = 0
        #: one stack: calls from Python threads take turns (reentrant — a
        #: Python callback may call back into Terra)
        self.lock = threading.RLock()
        if sys.getrecursionlimit() < 10000:
            sys.setrecursionlimit(10000)

    # -- function pointers ----------------------------------------------------
    def funcptr(self, fn) -> int:
        """A callable process address for ``fn``: its C entry when one is
        bound, else a trampoline to it."""
        code = self._code.get(fn)
        if code is None:
            if isinstance(fn, PyCallback):
                code = abi.callback_address(fn)
            else:
                code = _entry_of(fn)
            self._code[fn] = code
            self._fn_at[code[0]] = fn
        return code[0]

    def call_address(self, addr: int, ftype: T.FunctionType, args: list,
                     level: int):
        """Call what ``addr`` holds: a function this machine handed out
        runs here, other code through ctypes; any other address traps."""
        target = self._fn_at.get(addr)
        if isinstance(target, PyCallback):
            return convert.callback_runner(target)(*args)
        if target is not None:
            return self.call_function(target, args, level)
        if self.memory.region_at(addr) is not None or not abi.is_code(addr):
            raise TrapError(f"call through invalid function pointer {addr:#x}")
        result = abi.prototype(ftype)(addr)(*[
            abi.ctype_for(ty).from_buffer_copy(a) if ty.isaggregate() else a
            for ty, a in zip(ftype.parameters, args)])
        if ftype.returntype.isaggregate() and result is not None:
            return bytes(result)
        return bool(result) if ftype.returntype is T.bool_ else result

    def intern_string(self, text: str) -> int:
        addr = self._strings.get(text)
        if addr is None:
            raw = text.encode("utf-8") + b"\x00"
            region = self.memory.map_region(len(raw), "global")
            self.memory.write(region.start, raw)
            addr = region.start
            self._strings[text] = addr
        return addr

    # ==================================================================
    # calls
    # ==================================================================
    def call_function(self, fn: TerraFunction, args: list, level: int):
        """Call with interpreter-convention values (see layout module);
        ``level`` is the calling handle's pipeline level, at which every
        body — entry, callee, function-pointer target — is read, whatever
        other levels were built first."""
        if fn.is_external:
            return self.call_external(fn, args)
        if fn.typed is None:
            from ...core.linker import ensure_typechecked
            ensure_typechecked(fn)
        typed = fn.typed
        if self._depth >= self.max_call_depth:
            raise TrapError(f"interpreter call depth exceeded in {fn.name}")
        self._depth += 1
        frame = Frame(self, level)
        try:
            for sym, ty, value in zip(typed.param_symbols,
                                      typed.type.parameters, args):
                addr = frame.declare(sym, ty)
                self.typed.store(addr, value, ty)
            try:
                self.exec_block(pipelined_body(typed, level), frame)
            except _ReturnSignal as ret:
                return ret.value
            rettype = typed.type.returntype
            if isinstance(rettype, T.TupleType) and rettype.isunit():
                return None
            raise TrapError(
                f"function {fn.name} fell off the end without returning "
                f"a {rettype}")
        finally:
            frame.release()
            self._depth -= 1

    def call_external(self, fn: TerraFunction, args: list):
        impl = BUILTINS.get(fn.external_name)
        if impl is None:
            raise TrapError(
                f"external function {fn.external_name!r} has no interpreter "
                f"implementation")
        return impl(self, args)

    # ==================================================================
    # statements
    # ==================================================================
    def exec_block(self, block: tast.TBlock, frame: Frame, then=None):
        """Run ``block``, then evaluate ``then`` in its scope, then pop its
        locals (which a break or return leaves to an enclosing block)."""
        depth = len(frame.regions)
        for stat in block.statements:
            self.exec_stat(stat, frame)
        value = None if then is None else self.eval_expr(then, frame)
        if len(frame.regions) > depth:
            frame.release(depth)
        return value

    def exec_stat(self, s: tast.TStat, frame: Frame) -> None:
        if isinstance(s, tast.TVarDecl):
            for i, (sym, ty) in enumerate(zip(s.symbols, s.types)):
                addr = frame.declare(sym, ty)
                if s.inits is not None:
                    value = self.eval_expr(s.inits[i], frame)
                else:
                    value = zero_value(ty)
                self.typed.store(addr, value, ty)
        elif isinstance(s, tast.TAssign):
            rhs = [self.eval_expr(r, frame) for r in s.rhs]
            targets = [self.eval_lvalue(l, frame) for l in s.lhs]
            for (addr, ty), value in zip(targets, rhs):
                self.typed.store(addr, value, ty)
        elif isinstance(s, tast.TIf):
            for cond, body in s.branches:
                if self.eval_expr(cond, frame):
                    self.exec_block(body, frame)
                    return
            if s.orelse is not None:
                self.exec_block(s.orelse, frame)
        elif isinstance(s, tast.TWhile):
            while self.eval_expr(s.cond, frame):
                try:
                    self.exec_block(s.body, frame)
                except _BreakSignal:
                    break
        elif isinstance(s, tast.TRepeat):
            while True:
                try:
                    self.exec_block(s.body, frame)
                except _BreakSignal:
                    break
                if self.eval_expr(s.cond, frame):
                    break
        elif isinstance(s, tast.TForNum):
            self._exec_for(s, frame)
        elif isinstance(s, tast.TDoStat):
            self.exec_block(s.body, frame)
        elif isinstance(s, tast.TReturn):
            value = self.eval_expr(s.expr, frame) if s.expr is not None else None
            raise _ReturnSignal(value)
        elif isinstance(s, tast.TBreak):
            raise _BreakSignal()
        elif isinstance(s, tast.TExprStat):
            self.eval_expr(s.expr, frame)
        else:
            raise CompileError(f"interp: unknown statement {type(s).__name__}")

    def _exec_for(self, s: tast.TForNum, frame: Frame) -> None:
        ty = s.var_type
        start = self.eval_expr(s.start, frame)
        limit = self.eval_expr(s.limit, frame)
        step = self.eval_expr(s.step, frame) if s.step is not None else 1
        addr = frame.declare(s.symbol, ty)
        i = start
        while (i < limit) if step > 0 else (i > limit):
            self.typed.store(addr, i, ty)
            try:
                self.exec_block(s.body, frame)
            except _BreakSignal:
                break
            # pick up body modifications of the loop variable (C behaviour)
            i = self.typed.load(addr, ty)
            if isinstance(ty, T.PrimitiveType) and ty.isintegral():
                i = V.scalar_binop("+", i, step, ty)
            else:
                i = i + step

    # ==================================================================
    # expressions
    # ==================================================================
    def eval_lvalue(self, e: tast.TExpr, frame: Frame) -> tuple[int, T.Type]:
        if isinstance(e, tast.TVar):
            return frame.addr_of(e.symbol)
        if isinstance(e, tast.TGlobal):
            return self.backend.global_slot(e.glob), e.type
        if isinstance(e, tast.TDeref):
            return self.eval_expr(e.ptr, frame), e.type
        if isinstance(e, tast.TSelect):
            base, base_ty = self.eval_lvalue(e.obj, frame)
            assert isinstance(base_ty, T.StructType)
            return base + base_ty.offsetof(e.field), e.type
        if isinstance(e, tast.TIndex):
            index = self.eval_expr(e.index, frame)
            if e.obj.type.ispointer():
                ptr = self.eval_expr(e.obj, frame)
                return ptr + index * e.type.sizeof(), e.type
            base, base_ty = self.eval_lvalue(e.obj, frame)
            assert isinstance(base_ty, T.ArrayType)
            if not 0 <= index < base_ty.count:
                raise TrapError(
                    f"array index {index} out of bounds for {base_ty}")
            return base + index * e.type.sizeof(), e.type
        if isinstance(e, tast.TVectorIndex):
            base, base_ty = self.eval_lvalue(e.obj, frame)
            assert isinstance(base_ty, T.VectorType)
            index = self.eval_expr(e.index, frame)
            if not 0 <= index < base_ty.count:
                raise TrapError(
                    f"vector index {index} out of bounds for {base_ty}")
            return base + index * base_ty.elem.sizeof(), e.type
        raise TrapError(f"interp: {type(e).__name__} is not an lvalue")

    def eval_expr(self, e: tast.TExpr, frame: Frame):
        if isinstance(e, tast.TConst):
            return e.value
        if isinstance(e, tast.TString):
            return self.intern_string(e.value)
        if isinstance(e, tast.TNull):
            return 0
        if isinstance(e, (tast.TVar, tast.TGlobal, tast.TDeref)):
            addr, ty = self.eval_lvalue(e, frame)
            return self.typed.load(addr, ty)
        if isinstance(e, tast.TSelect):
            if e.obj.lvalue:
                addr, ty = self.eval_lvalue(e, frame)
                return self.typed.load(addr, ty)
            blob = self.eval_expr(e.obj, frame)
            sty = e.obj.type
            assert isinstance(sty, T.StructType)
            off = sty.offsetof(e.field)
            return unpack_value(blob[off:off + e.type.sizeof()], e.type)
        if isinstance(e, (tast.TIndex, tast.TVectorIndex)):
            return self._eval_index(e, frame)
        if isinstance(e, tast.TAddressOf):
            addr, _ty = self.eval_lvalue(e.operand, frame)
            return addr
        if isinstance(e, tast.TFuncLit):
            return self.funcptr(e.func)
        if isinstance(e, tast.TCallback):
            return self.funcptr(e.callback)
        if isinstance(e, tast.TCast):
            return self._eval_cast(e, frame)
        if isinstance(e, tast.TCall):
            return self._eval_call(e, frame)
        if isinstance(e, tast.TUnOp):
            return self._eval_unop(e, frame)
        if isinstance(e, tast.TBinOp):
            return self._eval_binop(e, frame)
        if isinstance(e, tast.TLogical):
            lhs = self.eval_expr(e.lhs, frame)
            if e.op == "and":
                return bool(lhs) and bool(self.eval_expr(e.rhs, frame))
            return bool(lhs) or bool(self.eval_expr(e.rhs, frame))
        if isinstance(e, tast.TCtor):
            return self._eval_ctor(e, frame)
        if isinstance(e, tast.TLetIn):
            return self.exec_block(e.block, frame, e.expr)
        if isinstance(e, tast.TIntrinsic):
            return self._eval_intrinsic(e, frame)
        raise CompileError(f"interp: unknown expression {type(e).__name__}")

    def _eval_index(self, e, frame):
        if isinstance(e, tast.TIndex) and e.obj.type.ispointer():
            addr, ty = self.eval_lvalue(e, frame)
            return self.typed.load(addr, ty)
        if e.obj.lvalue:
            addr, ty = self.eval_lvalue(e, frame)
            return self.typed.load(addr, ty)
        base = self.eval_expr(e.obj, frame)
        index = self.eval_expr(e.index, frame)
        oty = e.obj.type
        if isinstance(oty, T.ArrayType):
            if not 0 <= index < oty.count:
                raise TrapError(f"array index {index} out of bounds for {oty}")
            esize = oty.elem.sizeof()
            return unpack_value(base[index * esize:(index + 1) * esize],
                                oty.elem)
        assert isinstance(oty, T.VectorType)
        if not 0 <= index < oty.count:
            raise TrapError(f"vector index {index} out of bounds for {oty}")
        return base[index]

    def _eval_cast(self, e: tast.TCast, frame):
        value = self.eval_expr(e.expr, frame)
        source, target = e.expr.type, e.type
        if e.kind == "numeric":
            assert isinstance(target, T.PrimitiveType)
            return V.scalar_cast(value, source, target)
        if e.kind in ("pointer", "ptr-int", "int-ptr"):
            if isinstance(target, T.PrimitiveType):
                return V.scalar_cast(value, source, target)
            return int(value) & 0xFFFFFFFFFFFFFFFF
        if e.kind == "broadcast":
            assert isinstance(target, T.VectorType)
            scalar = value
            return [scalar] * target.count
        if e.kind == "vector":
            assert isinstance(target, T.VectorType)
            return [V.scalar_cast(v, source.type, target.elem) for v in value]
        raise CompileError(f"interp: unknown cast kind {e.kind!r}")

    def _eval_call(self, e: tast.TCall, frame):
        args = [self.eval_expr(a, frame) for a in e.args]
        fn = e.fn
        if isinstance(fn, tast.TFuncLit):
            return self.call_function(fn.func, args, frame.level)
        if isinstance(fn, tast.TCallback):
            return convert.callback_runner(fn.callback)(*args)
        return self.call_address(self.eval_expr(fn, frame), fn.type.pointee,
                                 args, frame.level)

    def _eval_unop(self, e: tast.TUnOp, frame):
        value = self.eval_expr(e.operand, frame)
        ty = e.type
        if e.op == "-":
            if isinstance(ty, T.VectorType):
                return [V.scalar_neg(v, ty.elem) for v in value]
            assert isinstance(ty, T.PrimitiveType)
            return V.scalar_neg(value, ty)
        if e.op == "not":
            if ty is T.bool_:
                return not value
            if isinstance(ty, T.VectorType):
                if ty.islogical():
                    return [not v for v in value]
                return [V.scalar_binop("^", v, -1, ty.elem) for v in value]
            assert isinstance(ty, T.PrimitiveType)
            from ...memory.layout import wrap_int
            return wrap_int(~value, ty)
        raise CompileError(f"interp: unknown unary {e.op!r}")

    def _eval_binop(self, e: tast.TBinOp, frame):
        lhs = self.eval_expr(e.lhs, frame)
        rhs = self.eval_expr(e.rhs, frame)
        lt = e.lhs.type
        op = e.op
        # pointer arithmetic
        if lt.ispointer():
            if e.rhs.type.ispointer():
                if op == "-":
                    return (lhs - rhs) // lt.pointee.sizeof()
                return V.scalar_compare(op, lhs, rhs)
            esize = lt.pointee.sizeof()
            if op == "+":
                return lhs + rhs * esize
            if op == "-":
                return lhs - rhs * esize
        if op in ("<", ">", "<=", ">=", "==", "~="):
            if isinstance(lt, T.VectorType):
                return [V.scalar_compare(op, a, b) for a, b in zip(lhs, rhs)]
            return V.scalar_compare(op, lhs, rhs)
        if isinstance(lt, T.VectorType):
            return [V.scalar_binop(op, a, b, lt.elem)
                    for a, b in zip(lhs, rhs)]
        assert isinstance(lt, T.PrimitiveType)
        return V.scalar_binop(op, lhs, rhs, lt)

    def _eval_ctor(self, e: tast.TCtor, frame) -> bytes:
        ty = e.type
        blob = bytearray(ty.sizeof())
        if isinstance(ty, T.ArrayType):
            esize = ty.elem.sizeof()
            for i, init in enumerate(e.inits):
                blob[i * esize:(i + 1) * esize] = pack_value(
                    self.eval_expr(init, frame), ty.elem)
            return bytes(blob)
        assert isinstance(ty, T.StructType)
        for entry, init in zip(ty.entries, e.inits):
            off = ty.offsetof(entry.field)
            raw = pack_value(self.eval_expr(init, frame), entry.type)
            blob[off:off + len(raw)] = raw
        return bytes(blob)

    def _eval_intrinsic(self, e: tast.TIntrinsic, frame):
        name = e.name
        if name == "prefetch":
            self.eval_expr(e.args[0], frame)  # evaluate for effect/check
            return None
        if name == "fence":
            return None
        if name == "vload":
            vty = e.type
            assert isinstance(vty, T.VectorType)
            addr = self.eval_expr(e.args[0], frame)
            esize = vty.elem.sizeof()
            return [self.typed.load(addr + k * esize, vty.elem)
                    for k in range(vty.count)]
        if name == "vstore":
            vty = e.args[1].type
            assert isinstance(vty, T.VectorType)
            addr = self.eval_expr(e.args[0], frame)
            value = self.eval_expr(e.args[1], frame)
            esize = vty.elem.sizeof()
            for k, lane in enumerate(value):
                self.typed.store(addr + k * esize, lane, vty.elem)
            return None
        args = [self.eval_expr(a, frame) for a in e.args]
        ty = e.type
        if name == "select":
            cond, a, b = args
            if isinstance(ty, T.VectorType):
                return [av if c else bv for c, av, bv in zip(cond, a, b)]
            return a if cond else b
        fns = {"sqrt": math.sqrt, "fabs": abs, "floor": math.floor,
               "ceil": math.ceil, "fmin": min, "fmax": max}
        fn = fns.get(name)
        if fn is None:
            raise CompileError(f"interp: unknown intrinsic {name!r}")
        if isinstance(ty, T.VectorType):
            if len(args) == 1:
                return [V.scalar_cast(fn(v), ty.elem, ty.elem)
                        for v in args[0]]
            return [V.scalar_cast(fn(a, b), ty.elem, ty.elem)
                    for a, b in zip(args[0], args[1])]
        assert isinstance(ty, T.PrimitiveType)
        result = fn(*args)
        return V.scalar_cast(result, ty, ty) if ty.isfloat() else result


def _entry_of(fn) -> tuple:
    """``(address, keep-alive)`` of ``fn`` for a C caller: its C entry, or
    a trampoline that compiles and runs it at the first call — a C
    caller's pointers name memory the interpreter does not map.  ctypes
    cannot return a struct from a trampoline, so a struct result compiles
    the entry now; with no compiler no C code exists to call the address,
    and it is one only this machine calls.  An external's is the
    process's own symbol, as C's is."""
    if fn.is_external:
        try:
            symbol = getattr(libc, fn.external_name)
        except AttributeError:
            raise TrapError(f"external function {fn.external_name!r} is "
                            f"not in the process") from None
        return ctypes.cast(symbol, ctypes.c_void_p).value, None
    handles = fn.dispatcher.handles

    def run(*args):
        return (handles.get("c") or fn.compile("c")).cfn(*args)

    if "c" not in handles:
        try:
            return abi.trampoline(fn.gettype(), run)
        except TypeError:       # a struct result
            from ...buildd import toolchain
            if not toolchain.cc_available():
                return id(fn), None
            fn.compile("c")
    return ctypes.cast(handles["c"].cfn, ctypes.c_void_p).value, None


class InterpFunction(ExecutableHandle):
    """Python-callable handle on the interpreter: the call contract every
    handle keeps (``ExecutableHandle._invoke``), then :meth:`_run`, the
    call on the machine with the process buffers its pointers name mapped
    for it in place (:func:`_map_buffers`)."""

    def __init__(self, func: TerraFunction, machine: Machine):
        self.func = func
        self.machine = machine
        self.type = func.typed.type if func.typed else func.gettype()
        self.level = resolve_level(machine.backend.pipeline_level)

    def _run(self, args, cargs, keep):
        machine = self.machine
        with machine.lock:
            _map_buffers(machine.memory, self.type.parameters, args, cargs,
                         keep)
            return machine.call_function(self.func, cargs, self.level)


def _map_buffers(memory, params, args, cargs, keep) -> None:
    """Map the process buffers bound to one call's pointer parameters as
    host regions — but bytes a live region holds as they are — while the
    objects owning their bytes live (for a ``bytes`` or ``bytearray``, the
    call's ctypes copy or view; for an ndarray view, its base).  Buffers
    whose spans overlap share one region, as they share process memory, so
    ``f(buf, view_of_buf)`` reads through one pointer what it wrote through
    the other; a store traps into bytes only read-only buffers mapped.  An
    aggregate argument's ctypes copy becomes its bytes."""
    kept = iter(keep)   # one keep-alive per pointer parameter, in order
    spans = []      # (process address, bytes, writable, owner)
    for i, ty in enumerate(params):
        if ty.ispointer():
            extent = convert.buffer_span(args[i], next(kept))
            if extent is not None:
                spans.append((cargs[i], *extent))
        elif ty.isaggregate():
            cargs[i] = bytes(cargs[i])
    runs: list = []     # [start, end, spans], spans sorted by address
    for span in sorted(spans, key=lambda span: span[0]):
        if not runs or span[0] >= runs[-1][1]:
            runs.append([span[0], 0, []])
        runs[-1][1] = max(runs[-1][1], span[0] + span[1])
        runs[-1][2].append(span)
    for start, end, run in runs:
        readonly = not any(span[2] for span in run)
        held = memory.region_at(start)
        if held is None or not held.live or end > held.end or \
                held.readonly and not readonly:
            memory.map_host(start, end - start, "foreign", readonly,
                            {id(span[3]): span[3] for span in run}.values())


class InterpBackend(Backend):
    name = "interp"

    def __init__(self):
        self.memory = Memory()
        self.allocator = Allocator(self.memory)
        self.machine = Machine(self)
        self._globals: set[int] = set()

    def submit_unit(self, fn, component, memo=None):
        with _trace.span(f"emit:{fn.name}", cat="emit", backend="interp",
                         component_size=len(component)):
            handle = fn.dispatcher.install(
                self.name, InterpFunction(fn, self.machine))
        return CompileTicket.completed(handle)

    def global_slot(self, glob) -> int:
        """``glob``'s address: its own storage, mapped while it lives from
        the first time this machine meets it."""
        if glob.uid not in self._globals:
            self.memory.map_host(glob.address, glob.type.sizeof(), "global",
                                 False, [glob])
            self._globals.add(glob.uid)
        return glob.address
