"""The reference interpreter — Terra's ``→T`` judgment, executable.

Evaluates typed IR directly.  Every local variable lives in the flat
memory substrate (:mod:`repro.memory`), so address-of, pointer arithmetic
and aliasing behave exactly as in compiled code, and every access is
bounds- and liveness-checked (:class:`~repro.errors.TrapError` instead of
undefined behaviour).

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
from ...errors import CompileError, FFIError, TrapError
from ...ffi import convert
from ...memory.allocator import Allocator
from ...memory.flatmem import Memory
from ...memory.layout import TypedMemory, pack_value, unpack_value, zero_value
from ...passes import pipelined_body, resolve_level
from ..base import Backend, CompileTicket, ExecutableHandle
from . import values as V
from .builtins import BUILTINS


class _BreakSignal(Exception):
    pass


class _ReturnSignal(Exception):
    def __init__(self, value):
        self.value = value


class Frame:
    """One activation: symbol -> (address, type) slots in flat memory."""

    def __init__(self, machine: "Machine", level: int):
        self.machine = machine
        self.level = level      # the pipeline level this activation reads
        self.slots: dict[Symbol, tuple[int, T.Type]] = {}
        self.regions = []

    def declare(self, symbol: Symbol, ty: T.Type) -> int:
        size, align = ty.layout()
        region = self.machine.memory.map_region(max(size, 1), "stack",
                                                max(align, 1))
        self.slots[symbol] = (region.start, ty)
        self.regions.append(region)
        return region.start

    def addr_of(self, symbol: Symbol) -> tuple[int, T.Type]:
        slot = self.slots.get(symbol)
        if slot is None:
            raise TrapError(f"variable {symbol!r} has no storage (used "
                            f"outside its defining function?)")
        return slot

    def release(self) -> None:
        for region in self.regions:
            self.machine.memory.unmap_region(region)


class Machine:
    """The interpreter state shared by all functions of a backend."""

    def __init__(self, backend: "InterpBackend"):
        self.backend = backend
        self.memory = backend.memory
        self.allocator = backend.allocator
        self.typed = TypedMemory(self.memory)
        self._strings: dict[str, int] = {}
        #: fake code addresses for function pointers
        self._funcptr_by_fn: dict[int, int] = {}
        self._fn_by_addr: dict[int, object] = {}
        self.stdout_chunks: list[str] = []
        # each Terra frame costs ~20 Python frames; keep the product
        # safely under CPython's recursion limit
        self.max_call_depth = 200
        self._depth = 0
        #: one flat memory, one stack: calls from Python threads take turns
        #: (reentrant — a Python callback may call back into Terra)
        self.lock = threading.RLock()
        import sys
        if sys.getrecursionlimit() < 10000:
            sys.setrecursionlimit(10000)

    # -- function pointers ----------------------------------------------------
    def funcptr(self, fn) -> int:
        key = id(fn)
        addr = self._funcptr_by_fn.get(key)
        if addr is None:
            region = self.memory.map_region(8, "foreign")
            addr = region.start
            self._funcptr_by_fn[key] = addr
            self._fn_by_addr[addr] = fn
        return addr

    def resolve_funcptr(self, addr: int):
        fn = self._fn_by_addr.get(addr)
        if fn is None:
            raise TrapError(f"call through invalid function pointer {addr:#x}")
        return fn

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

    def call_callback(self, cb: PyCallback, args: list):
        ftype = cb.type
        py_args = [self._to_python(a, p) for a, p in
                   zip(args, ftype.parameters)]
        result = cb.fn(*py_args)
        rettype = ftype.returntype
        if isinstance(rettype, T.TupleType) and rettype.isunit():
            return None
        return self._from_python(result, rettype)

    def _to_python(self, value, ty: T.Type):
        if ty.ispointer():
            from ...ffi.cdata import CPointer
            return CPointer(ty, value)
        return value

    def _from_python(self, value, ty: T.Type):
        if ty.ispointer():
            addr, _ = convert.pointer_address(value, ty)
            return addr
        if isinstance(ty, T.PrimitiveType):
            return convert.python_to_primitive(value, ty)
        raise FFIError(f"callback cannot return {ty} in the interpreter")

    # ==================================================================
    # statements
    # ==================================================================
    def exec_block(self, block: tast.TBlock, frame: Frame) -> None:
        for stat in block.statements:
            self.exec_stat(stat, frame)

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
            self.exec_block(e.block, frame)
            return self.eval_expr(e.expr, frame)
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
            return self.call_callback(fn.callback, args)
        addr = self.eval_expr(fn, frame)
        target = self.resolve_funcptr(addr)
        if isinstance(target, PyCallback):
            return self.call_callback(target, args)
        return self.call_function(target, args, frame.level)

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


class InterpFunction(ExecutableHandle):
    """Python-callable handle mirroring CompiledFunction's conversions."""

    def __init__(self, func: TerraFunction, machine: Machine):
        self.func = func
        self.machine = machine
        self.type = func.typed.type if func.typed else func.gettype()
        self.level = resolve_level(machine.backend.pipeline_level)

    # __call__ (with the shared observability hook) comes from
    # ExecutableHandle — see repro.backend.base

    def _invoke(self, args):
        ftype = self.type
        if len(args) != len(ftype.parameters):
            raise FFIError(
                f"{self.func.name}() takes {len(ftype.parameters)} "
                f"arguments, got {len(args)}")
        keep: list = []
        with self.machine.lock:
            try:
                machine_args = self._arguments(args, keep)
                result = self.machine.call_function(self.func, machine_args,
                                                    self.level)
            finally:
                for item in keep:
                    if isinstance(item, (_CopyBack, _CtypesCopyBack)):
                        item.copy_back()
            return self._to_python(result, ftype.returntype)

    def _arguments(self, args, keep: list) -> list:
        machine_args: list = []
        arrays: list = []
        np = sys.modules.get("numpy")   # an array implies a loaded numpy
        for value, ty in zip(args, self.type.parameters):
            if np is not None and isinstance(value, np.ndarray) \
                    and ty.ispointer():
                # the C backend's validation, in argument order; mapped
                # once every array is known
                address = convert.pointer_address(value, ty)[0]
                arrays.append((address, value.nbytes, len(machine_args),
                               value))
                machine_args.append(None)
            else:
                machine_args.append(self._to_machine(value, ty, keep))
        self._map_arrays(arrays, machine_args, keep)
        return machine_args

    def _to_machine(self, value, ty: T.Type, keep: list):
        if isinstance(ty, T.PrimitiveType):
            return convert.python_to_primitive(value, ty)
        if ty.ispointer():
            return self._pointer_to_machine(value, ty, keep)
        if ty.isaggregate():
            return convert.python_to_blob(value, ty)
        raise FFIError(f"interp: cannot pass {ty} from Python")

    def _map_arrays(self, arrays: list, machine_args: list,
                    keep: list) -> None:
        """Map the numpy arguments (``(address, nbytes, position, array)``)
        into interpreter memory and fill in their positions.  Arrays that
        share process memory share interpreter memory too, as under C:
        each run of overlapping arrays is one region, copied in from the
        bytes they span and back out to each array after the call (so
        ``f(buf, buf)`` reads through one pointer what it wrote through
        the other)."""
        runs: list = []
        for span in sorted(arrays, key=lambda span: span[:3]):
            if runs and span[0] < max(a + n for a, n, _, _ in runs[-1]):
                runs[-1].append(span)
            else:
                runs.append([span])
        for run in runs:
            mirror = _CopyBack(self.machine, run)
            keep.append(mirror)
            for address, _, i, _ in run:
                machine_args[i] = mirror.region.start + address \
                    - mirror.address

    def _pointer_to_machine(self, value, ty: T.Type, keep: list) -> int:
        """Pointers in the interpreter live in flat memory: copy Python
        buffers in, and arrange copy-out for ctypes storage (so kernels
        that write through pointers behave as with the C backend).  Numpy
        arrays are mapped together, by :meth:`_map_arrays`."""
        machine = self.machine
        if isinstance(value, (ctypes.Array, ctypes.Structure)):
            # server-resident buffers (repro.serve) and other ctypes
            # storage: copy in, mirror writes back out after the call —
            # same observable behavior as handing the C backend the
            # array's real address
            raw, mirror = bytes(memoryview(value).cast("B")), _CtypesCopyBack
        elif isinstance(value, bytearray):
            # the same, through the view C is handed; CPython ends its
            # storage in a NUL, which C can read, so the copy does too
            raw, mirror = bytes(value) + b"\x00", _CtypesCopyBack
            value = (ctypes.c_char * len(value)).from_buffer(value)
        elif isinstance(value, bytes):
            raw, mirror = value + b"\x00", None
        elif isinstance(value, str):
            return machine.intern_string(value)
        else:   # an address: None, int, CPointer, ... — the C backend's table
            return convert.pointer_address(value, ty)[0]
        region = machine.memory.map_region(max(len(raw), 1), "foreign")
        machine.memory.write(region.start, raw)
        keep.append(mirror(machine, region, value) if mirror else region)
        return region.start

    def _to_python(self, result, ty: T.Type):
        if isinstance(ty, T.TupleType) and ty.isunit():
            return None
        if isinstance(ty, T.PrimitiveType):
            return result
        if ty.ispointer():
            from ...ffi.cdata import CPointer
            return CPointer(ty, result)
        if isinstance(ty, T.TupleType):
            from ...ffi.cdata import CStruct
            return CStruct(ty, result).totuple()
        if ty.isaggregate():
            from ...ffi.cdata import CStruct
            return CStruct(ty, result)
        raise FFIError(f"interp: cannot return {ty}")


class _CopyBack:
    """One region of interpreter memory mirroring a run of overlapping
    numpy arrays (``(address, nbytes, position, array)`` spans, sorted by
    address): filled from the process bytes they span, and copied back
    into each writable array after the call (the interpreter's address
    space is distinct from the process heap, so pointer writes must be
    mirrored out)."""

    def __init__(self, machine: Machine, run: list):
        self.machine = machine
        self.address = run[0][0]
        size = max(a + n for a, n, _, _ in run) - self.address
        self.region = machine.memory.map_region(max(size, 1), "foreign")
        machine.memory.write(self.region.start,
                             ctypes.string_at(self.address, size))
        self.arrays = [(a - self.address, array) for a, _, _, array in run]

    def copy_back(self) -> None:
        from numpy import frombuffer
        for offset, array in self.arrays:
            if array.flags.writeable:
                raw = self.machine.memory.read_unchecked(
                    self.region.start + offset, array.nbytes)
                array.reshape(-1)[:] = frombuffer(raw, array.dtype)
        self.machine.memory.unmap_region(self.region)


class _CtypesCopyBack:
    """Copies interpreter memory back into ctypes arrays and structs after
    the call, as :class:`_CopyBack` does for numpy arrays."""

    def __init__(self, machine: Machine, region, array):
        self.machine = machine
        self.region = region
        self.array = array

    def copy_back(self) -> None:
        size = ctypes.sizeof(self.array)
        raw = self.machine.memory.read_unchecked(self.region.start, size)
        ctypes.memmove(ctypes.addressof(self.array), raw, size)
        self.machine.memory.unmap_region(self.region)


class InterpBackend(Backend):
    name = "interp"

    def __init__(self):
        self.memory = Memory()
        self.allocator = Allocator(self.memory)
        self.machine = Machine(self)
        self._global_slots: dict[int, int] = {}

    def submit_unit(self, fn, component, memo=None):
        with _trace.span(f"emit:{fn.name}", cat="emit", backend="interp",
                         component_size=len(component)):
            handle = fn.dispatcher.install(
                self.name, InterpFunction(fn, self.machine))
        return CompileTicket.completed(handle)

    # -- globals ----------------------------------------------------------------
    def global_slot(self, glob) -> int:
        addr = self._global_slots.get(glob.uid)
        if addr is None:
            size, align = glob.type.layout()
            region = self.memory.map_region(max(size, 1), "global",
                                            max(align, 1))
            addr = region.start
            self._global_slots[glob.uid] = addr
            if glob.init is not None:
                blob = convert.python_to_blob(glob.init, glob.type)
                self.memory.write(addr, blob)
        return addr

    def materialize_global(self, glob):
        return self.global_slot(glob)

    def read_global(self, glob):
        addr = self.global_slot(glob)
        raw = self.memory.read(addr, glob.type.sizeof())
        return convert.blob_to_python(raw, glob.type)

    def write_global(self, glob, value) -> None:
        addr = self.global_slot(glob)
        self.memory.write(addr, convert.python_to_blob(value, glob.type))
