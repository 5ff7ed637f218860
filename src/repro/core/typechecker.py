"""Lazy typechecking of specialized Terra functions.

Runs the first time a function is called or referenced by a called
function (paper §4.1: "we perform typechecking and linking lazily").  The
checker:

* computes a type for every expression, inserting implicit conversions
  (C's usual arithmetic conversions, NULL adoption, array decay, scalar →
  vector broadcast),
* desugars method invocations ``obj:m(a)`` into direct calls through the
  receiver's static type (``T.methods.m``), running ``__methodmissing``
  when the method is absent,
* expands user-defined conversions via the ``__cast`` metamethod — trying
  the *starting* type's metamethod first when both types define one,
  exactly as the paper specifies,
* finalizes struct layouts via ``__finalizelayout`` right before a type is
  first examined,
* lowers ``defer`` into explicit calls on every scope exit path,
* records every referenced function for connected-component linking.

Typechecking is monotonic: a function that fails only because a referenced
declaration is still undefined will succeed once it is defined; an
ill-typed body stays ill-typed (definitions are immutable).
"""

from __future__ import annotations

from typing import Optional

from .. import config
from ..errors import LinkError, TypeCheckError
from ..memory.layout import round_float
from . import sast, tast
from . import types as T
from .function import PyCallback, TerraFunction
from .intrinsics import lookup as lookup_intrinsic
from .quotes import Quote
from .specialize import Macro
from .symbols import Symbol

_ARITH_OPS = {"+", "-", "*", "/", "%"}
_COMPARE_OPS = {"<", ">", "<=", ">=", "==", "~="}
_SHIFT_OPS = {"<<", ">>"}
_BITWISE_OPS = {"&", "|", "^"}


def _is_void_ptr(ty: T.Type) -> bool:
    return (ty.ispointer()
            and isinstance(ty.pointee, T.OpaqueType)
            and ty.pointee.name == "void")


def type_of_function(fn: TerraFunction) -> T.FunctionType:
    """The declared or inferred type of ``fn``; typechecks on demand with
    cycle detection (recursive functions must annotate return types)."""
    if fn._type is not None:
        return fn._type
    if not fn.isdefined():
        raise LinkError(
            f"Terra function {fn.name!r} is declared but not defined")
    from .linker import typecheck_function
    typecheck_function(fn)
    assert fn._type is not None
    return fn._type


class TypeChecker:
    def __init__(self, func: TerraFunction):
        self.func = func
        self.scope: dict[Symbol, T.Type] = {}
        self.declared_ret = func.declared_rettype
        self.inferred_ret: Optional[T.Type] = None
        self.loop_depth = 0
        #: stack of per-scope deferred calls; each frame: (is_loop, [TExpr])
        self.defer_stack: list[tuple[bool, list[tast.TExpr]]] = []
        self.referenced_functions: list[TerraFunction] = []
        self.referenced_globals: list = []
        self.referenced_callbacks: list[PyCallback] = []

    # -- entry point ----------------------------------------------------------
    def run(self) -> tast.TypedFunction:
        fn = self.func
        assert fn.body is not None
        for sym, ty in zip(fn.param_symbols, fn.param_types):
            self._check_complete(ty, fn.location)
            self.scope[sym] = ty
        body = self.check_block(fn.body)
        if self.declared_ret is not None:
            rettype = self.declared_ret
        elif self.inferred_ret is not None:
            rettype = self.inferred_ret
        else:
            rettype = T.unit
        rets = self._rettype_to_list(rettype)
        ftype = T.FunctionType(fn.param_types, rets)
        typed = tast.TypedFunction(fn, list(fn.param_symbols), ftype, body)
        typed.referenced_functions = self.referenced_functions
        typed.referenced_globals = self.referenced_globals
        typed.referenced_callbacks = self.referenced_callbacks
        if config.get("REPRO_TERRA_VERIFY_IR"):
            # catch malformed trees at the source before any pass touches
            # them (the pass manager re-verifies after each transform)
            from ..passes.verify import verify_function
            verify_function(typed, where="after typechecking")
        return typed

    @staticmethod
    def _rettype_to_list(rettype: T.Type) -> list[T.Type]:
        if isinstance(rettype, T.TupleType):
            return list(rettype.element_types)
        return [rettype]

    def _check_complete(self, ty: T.Type, location) -> None:
        if isinstance(ty, T.StructType):
            ty.complete()
        if isinstance(ty, T.OpaqueType):
            raise TypeCheckError(
                f"cannot use incomplete type {ty} by value", location)

    # ======================================================================
    # conversions
    # ======================================================================
    def convert(self, expr: tast.TExpr, target: T.Type, location,
                explicit: bool = False) -> tast.TExpr:
        source = expr.type
        if source is target:
            return expr
        if isinstance(target, T.StructType):
            target.complete()
        if isinstance(source, T.StructType):
            source.complete()
        # NULL adopts any pointer type -------------------------------------
        if isinstance(expr, tast.TNull) and target.ispointer():
            return tast.TNull(target, location)
        # primitive numeric conversions --------------------------------------
        if isinstance(source, T.PrimitiveType) and isinstance(target, T.PrimitiveType):
            if source.isarithmetic() and target.isarithmetic():
                return self._fold_cast(target, expr, "numeric", location)
            if explicit and (source.islogical() or target.islogical()):
                return tast.TCast(target, expr, "numeric", location)
        # pointer conversions ---------------------------------------------------
        if source.ispointer() and target.ispointer():
            # void* converts implicitly in both directions, as in C
            if _is_void_ptr(source) or _is_void_ptr(target):
                return tast.TCast(target, expr, "pointer", location)
            if explicit:
                return tast.TCast(target, expr, "pointer", location)
            cast = self._try_user_cast(source, target, expr, location)
            if cast is not None:
                return cast
            raise TypeCheckError(
                f"cannot implicitly convert {source} to {target}; "
                f"use an explicit cast", location)
        if explicit and source.ispointer() and target.isintegral() \
                and isinstance(target, T.PrimitiveType) and target.bytes == 8:
            return tast.TCast(target, expr, "ptr-int", location)
        if explicit and source.isintegral() and target.ispointer():
            return tast.TCast(target, expr, "int-ptr", location)
        # array decay: T[N] lvalue -> &T -----------------------------------------
        if source.isarray() and target.ispointer() \
                and isinstance(source, T.ArrayType) \
                and source.elem is target.pointee:
            if not expr.lvalue:
                raise TypeCheckError(
                    "cannot take the address of an array rvalue", location)
            first = tast.TIndex(expr, tast.TConst(0, T.int64, location),
                                source.elem, location)
            return tast.TAddressOf(first, location)
        # scalar -> vector broadcast ------------------------------------------------
        if isinstance(target, T.VectorType) and isinstance(source, T.PrimitiveType):
            if source.isarithmetic() and target.elem.isarithmetic():
                scalar = self.convert(expr, target.elem, location, explicit)
                return tast.TCast(target, scalar, "broadcast", location)
        # vector -> vector elementwise -------------------------------------------
        if isinstance(target, T.VectorType) and isinstance(source, T.VectorType):
            if source.count == target.count and explicit:
                return tast.TCast(target, expr, "vector", location)
        # anonymous aggregate -> struct ----------------------------------------------
        if isinstance(source, T.StructType) and isinstance(target, T.StructType):
            cast = self._try_user_cast(source, target, expr, location)
            if cast is not None:
                return cast
            if isinstance(expr, tast.TCtor):
                recast = self._ctor_to_struct(expr, target, location)
                if recast is not None:
                    return recast
        # user-defined conversions for any struct-involved pair ------------------
        if isinstance(source, T.StructType) or isinstance(target, T.StructType) \
                or (source.ispointer() and isinstance(source.pointee, T.StructType)):
            cast = self._try_user_cast(source, target, expr, location)
            if cast is not None:
                return cast
        raise TypeCheckError(
            f"cannot convert {source} to {target}", location)

    def _fold_cast(self, target, expr, kind, location):
        """Constant-fold numeric casts of literals so that e.g. int
        literals used in float contexts stay exact constants."""
        if isinstance(expr, tast.TConst) and isinstance(target, T.PrimitiveType):
            value = expr.value
            if target.isfloat():
                # round at the target's precision: a double literal cast
                # to float must bake the float32 value, not the double
                from ..memory.layout import round_float
                return tast.TConst(round_float(float(value), target),
                                   target, location)
            if target.isintegral() and isinstance(value, int):
                if target.min_value() <= value <= target.max_value():
                    return tast.TConst(value, target, location)
        return tast.TCast(target, expr, kind, location)

    def _struct_of(self, ty: T.Type) -> Optional[T.StructType]:
        if isinstance(ty, T.StructType):
            return ty
        if ty.ispointer() and isinstance(ty.pointee, T.StructType):
            return ty.pointee
        return None

    def _try_user_cast(self, source: T.Type, target: T.Type,
                       expr: tast.TExpr, location) -> Optional[tast.TExpr]:
        """Run ``__cast`` metamethods.  The paper: "it will call the
        __cast metamethod of either type ... (if both are successful, we
        favor the metamethod of the starting type)"."""
        candidates = []
        src_struct = self._struct_of(source)
        dst_struct = self._struct_of(target)
        if src_struct is not None and "__cast" in src_struct.metamethods:
            candidates.append(src_struct.metamethods["__cast"])
        if dst_struct is not None and dst_struct is not src_struct \
                and "__cast" in dst_struct.metamethods:
            candidates.append(dst_struct.metamethods["__cast"])
        for cast_fn in candidates:
            try:
                result = cast_fn(source, target, Quote.from_expr(expr))
            except Exception:
                continue
            if result is None:
                continue
            typed = self.check_expr(self._quote_tree(result, location))
            if typed.type is not target:
                typed = self.convert(typed, target, location)
            return typed
        return None

    @staticmethod
    def _quote_tree(value, location):
        if isinstance(value, Quote):
            return value.as_expression()
        from .specialize import embed_value
        return embed_value(value, location)

    # ======================================================================
    # expressions
    # ======================================================================
    def check_expr(self, e) -> tast.TExpr:
        # already-typed nodes (from __cast / macro splices) pass through
        if isinstance(e, tast.TExpr):
            return e
        method = getattr(self, "_check_" + type(e).__name__, None)
        if method is None:
            raise TypeCheckError(
                f"cannot typecheck {type(e).__name__}", getattr(e, "location", None))
        return method(e)

    def check_rvalue(self, e) -> tast.TExpr:
        typed = self.check_expr(e)
        if isinstance(typed, tast.TNull):
            # un-adopted nil defaults to &int8
            return tast.TNull(T.rawstring, typed.location)
        if isinstance(typed.type, T.FunctionType):
            raise TypeCheckError(
                "a function cannot be used as a value here; take its "
                "address implicitly by referencing it", typed.location)
        return typed

    # -- leaves ------------------------------------------------------------------
    def _check_SConst(self, e: sast.SConst) -> tast.TExpr:
        ty = e.type
        if ty is None:
            ty = T.int32 if isinstance(e.value, int) else T.float64
        value = e.value
        if isinstance(value, (list, tuple)) and isinstance(ty, T.VectorType):
            value = [round_float(v, ty.elem) for v in value] \
                if ty.elem is T.float32 else list(value)
        elif ty is T.float32:       # 0.1f holds the float nearest 0.1
            value = round_float(value, ty)
        return tast.TConst(value, ty, e.location)

    def _check_SString(self, e: sast.SString) -> tast.TExpr:
        return tast.TString(e.value, e.location)

    def _check_SNull(self, e: sast.SNull) -> tast.TExpr:
        return tast.TNull(T.rawstring, e.location)

    def _check_SVar(self, e: sast.SVar) -> tast.TExpr:
        ty = self.scope.get(e.symbol)
        if ty is None:
            ty = e.symbol.type
            if ty is None or e.symbol not in self.scope:
                raise TypeCheckError(
                    f"variable {e.symbol!r} is not in scope here (a quote "
                    f"may have been spliced outside the scope of its "
                    f"variables)", e.location)
        return tast.TVar(e.symbol, ty, e.location)

    def _check_SGlobal(self, e: sast.SGlobal) -> tast.TExpr:
        if e.glob not in self.referenced_globals:
            self.referenced_globals.append(e.glob)
        return tast.TGlobal(e.glob, e.location)

    def _check_SFuncRef(self, e: sast.SFuncRef) -> tast.TExpr:
        ftype = type_of_function(e.func)
        if e.func not in self.referenced_functions:
            self.referenced_functions.append(e.func)
        return tast.TFuncLit(e.func, ftype, e.location)

    def _check_SPyCallback(self, e: sast.SPyCallback) -> tast.TExpr:
        if e.callback not in self.referenced_callbacks:
            self.referenced_callbacks.append(e.callback)
        return tast.TCallback(e.callback, e.location)

    def _check_STypeRef(self, e: sast.STypeRef) -> tast.TExpr:
        raise TypeCheckError(
            f"type {e.type} used as a value (types may only appear in "
            f"casts, constructors and annotations)", e.location)

    # -- operators ---------------------------------------------------------------
    def _check_SUnOp(self, e: sast.SUnOp) -> tast.TExpr:
        if e.op == "&":
            operand = self.check_expr(e.operand)
            if not operand.lvalue:
                raise TypeCheckError(
                    "cannot take the address of an rvalue", e.location)
            return tast.TAddressOf(operand, e.location)
        if e.op == "@":
            operand = self.check_rvalue(e.operand)
            if not operand.type.ispointer():
                raise TypeCheckError(
                    f"cannot dereference non-pointer type {operand.type}",
                    e.location)
            return tast.TDeref(operand, operand.type.pointee, e.location)
        if e.op == "-":
            operand = self.check_rvalue(e.operand)
            ty = operand.type
            if isinstance(ty, T.StructType):
                ty.complete()
                hook = ty.metamethods.get("__unm")
                if hook is not None:
                    result = hook(Quote.from_expr(operand))
                    return self.check_expr(
                        self._quote_tree(result, e.location))
            if ty.isarithmetic() or (ty.isvector() and ty.isarithmetic()):
                if isinstance(operand, tast.TConst) and isinstance(
                        operand.value, (int, float)):
                    # fold with C semantics: unsigned/sub-int negation
                    # wraps at the type's width (a bare -value would bake
                    # an unrepresentable constant into the IR, which the
                    # C emitter then wraps but the interpreter would not)
                    from ..backend.interp.values import scalar_neg
                    return tast.TConst(scalar_neg(operand.value, ty),
                                       ty, e.location)
                return tast.TUnOp("-", operand, ty, e.location)
            raise TypeCheckError(f"cannot negate {ty}", e.location)
        if e.op == "not":
            operand = self.check_rvalue(e.operand)
            ty = operand.type
            if ty is T.bool_ or ty.isintegral() \
                    or (isinstance(ty, T.VectorType)
                        and (ty.islogical() or ty.isintegral())):
                return tast.TUnOp("not", operand, ty, e.location)
            raise TypeCheckError(f"'not' requires bool or integer, got {ty}",
                                 e.location)
        raise TypeCheckError(f"unknown unary operator {e.op!r}", e.location)

    def _unify_arith(self, lhs: tast.TExpr, rhs: tast.TExpr, location
                     ) -> tuple[tast.TExpr, tast.TExpr, T.Type]:
        lt, rt = lhs.type, rhs.type
        if isinstance(lt, T.VectorType) or isinstance(rt, T.VectorType):
            if isinstance(lt, T.VectorType) and isinstance(rt, T.VectorType):
                if lt.count != rt.count:
                    raise TypeCheckError(
                        f"vector length mismatch: {lt} vs {rt}", location)
                common = T.vector(T.common_primitive(lt.elem, rt.elem), lt.count)
            elif isinstance(lt, T.VectorType):
                common = T.vector(T.common_primitive(
                    lt.elem, self._as_primitive(rt, location)), lt.count)
            else:
                assert isinstance(rt, T.VectorType)
                common = T.vector(T.common_primitive(
                    self._as_primitive(lt, location), rt.elem), rt.count)
            return (self.convert(lhs, common, location),
                    self.convert(rhs, common, location), common)
        common_p = T.common_primitive(self._as_primitive(lt, location),
                                      self._as_primitive(rt, location))
        return (self.convert(lhs, common_p, location),
                self.convert(rhs, common_p, location), common_p)

    @staticmethod
    def _as_primitive(ty: T.Type, location) -> T.PrimitiveType:
        if isinstance(ty, T.PrimitiveType) and ty.isarithmetic():
            return ty
        raise TypeCheckError(f"expected an arithmetic type, got {ty}", location)

    _OP_METAMETHODS = {"+": "__add", "-": "__sub", "*": "__mul",
                       "/": "__div", "%": "__mod", "==": "__eq",
                       "~=": "__ne", "<": "__lt", "<=": "__le",
                       ">": "__gt", ">=": "__ge"}

    def _try_operator_metamethod(self, op: str, lhs: tast.TExpr,
                                 rhs: tast.TExpr, location):
        """User-defined operators: a struct operand whose metamethods
        define ``__add`` etc. handles the operator by returning a quote."""
        name = self._OP_METAMETHODS.get(op)
        if name is None:
            return None
        for operand in (lhs, rhs):
            if isinstance(operand.type, T.StructType):
                operand.type.complete()
                hook = operand.type.metamethods.get(name)
                if hook is not None:
                    result = hook(Quote.from_expr(lhs), Quote.from_expr(rhs))
                    return self.check_expr(self._quote_tree(result, location))
        return None

    def _check_SBinOp(self, e: sast.SBinOp) -> tast.TExpr:
        op = e.op
        lhs = self.check_rvalue(e.lhs)
        rhs = self.check_rvalue(e.rhs)
        overloaded = self._try_operator_metamethod(op, lhs, rhs, e.location)
        if overloaded is not None:
            return overloaded
        lt, rt = lhs.type, rhs.type
        if op in _ARITH_OPS:
            # pointer arithmetic ------------------------------------------------
            if lt.ispointer() and rt.isintegral() and op in ("+", "-"):
                idx = self.convert(rhs, T.int64, e.location)
                return tast.TBinOp(op, lhs, idx, lt, e.location)
            if rt.ispointer() and lt.isintegral() and op == "+":
                idx = self.convert(lhs, T.int64, e.location)
                return tast.TBinOp(op, rhs, idx, rt, e.location)
            if lt.ispointer() and rt.ispointer() and op == "-":
                if lt is not rt:
                    raise TypeCheckError(
                        f"cannot subtract pointers of different types "
                        f"{lt} and {rt}", e.location)
                return tast.TBinOp(op, lhs, rhs, T.int64, e.location)
            lhs, rhs, common = self._unify_arith(lhs, rhs, e.location)
            return tast.TBinOp(op, lhs, rhs, common, e.location)
        if op in _COMPARE_OPS:
            if lt.ispointer() and rt.ispointer():
                if lt is not rt and not (isinstance(lhs, tast.TNull)
                                         or isinstance(rhs, tast.TNull)):
                    raise TypeCheckError(
                        f"cannot compare pointers of different types "
                        f"{lt} and {rt}", e.location)
                if isinstance(lhs, tast.TNull):
                    lhs = tast.TNull(rt, e.location)
                if isinstance(rhs, tast.TNull):
                    rhs = tast.TNull(lt, e.location)
                return tast.TBinOp(op, lhs, rhs, T.bool_, e.location)
            if lt is T.bool_ and rt is T.bool_ and op in ("==", "~="):
                return tast.TBinOp(op, lhs, rhs, T.bool_, e.location)
            lhs, rhs, common = self._unify_arith(lhs, rhs, e.location)
            if isinstance(common, T.VectorType):
                return tast.TBinOp(op, lhs, rhs,
                                   T.vector(T.bool_, common.count), e.location)
            return tast.TBinOp(op, lhs, rhs, T.bool_, e.location)
        if op in ("and", "or"):
            if lt is T.bool_ and rt is T.bool_:
                return tast.TLogical(op, lhs, rhs, e.location)
            if lt.isintegral() and rt.isintegral():
                lhs, rhs, common = self._unify_arith(lhs, rhs, e.location)
                return tast.TBinOp(op, lhs, rhs, common, e.location)
            if isinstance(lt, T.VectorType) and isinstance(rt, T.VectorType) \
                    and lt is rt and (lt.islogical() or lt.isintegral()):
                return tast.TBinOp(op, lhs, rhs, lt, e.location)
            raise TypeCheckError(
                f"{op!r} requires two booleans or two integers, got {lt} "
                f"and {rt}", e.location)
        if op in _SHIFT_OPS:
            if not (lt.isintegral() and rt.isintegral()):
                raise TypeCheckError(
                    f"shift requires integers, got {lt} and {rt}", e.location)
            rhs = self.convert(rhs, lt if isinstance(lt, T.PrimitiveType)
                               else rt, e.location)
            return tast.TBinOp(op, lhs, rhs, lt, e.location)
        if op in _BITWISE_OPS:
            if lt.isintegral() and rt.isintegral():
                lhs, rhs, common = self._unify_arith(lhs, rhs, e.location)
                return tast.TBinOp(op, lhs, rhs, common, e.location)
            raise TypeCheckError(
                f"bitwise {op!r} requires integers, got {lt} and {rt}",
                e.location)
        raise TypeCheckError(f"unknown operator {op!r}", e.location)

    # -- memory access -----------------------------------------------------------
    def _check_SSelect(self, e: sast.SSelect) -> tast.TExpr:
        obj = self.check_expr(e.obj)
        ty = obj.type
        if ty.ispointer() and isinstance(ty.pointee, T.StructType):
            obj = tast.TDeref(obj, ty.pointee, e.location)
            ty = ty.pointee
        if not isinstance(ty, T.StructType):
            raise TypeCheckError(
                f"cannot select field {e.field!r} from non-struct type {ty}",
                e.location)
        ty.complete()
        ftype = ty.entry_type(e.field)
        if ftype is None:
            hook = ty.metamethods.get("__entrymissing")
            if hook is not None:
                result = hook(e.field, Quote.from_expr(obj))
                return self.check_expr(self._quote_tree(result, e.location))
            raise TypeCheckError(
                f"struct {ty} has no field {e.field!r} "
                f"(fields: {', '.join(ty.entry_names()) or 'none'})",
                e.location)
        return tast.TSelect(obj, e.field, ftype, e.location)

    def _check_SIndex(self, e: sast.SIndex) -> tast.TExpr:
        obj = self.check_expr(e.obj)
        index = self.convert(self.check_rvalue(e.index), T.int64, e.location)
        ty = obj.type
        if ty.ispointer():
            obj = self.check_rvalue(e.obj)
            return tast.TIndex(obj, index, ty.pointee, e.location)
        if isinstance(ty, T.ArrayType):
            return tast.TIndex(obj, index, ty.elem, e.location)
        if isinstance(ty, T.VectorType):
            return tast.TVectorIndex(obj, index, ty.elem, e.location)
        raise TypeCheckError(f"cannot index type {ty}", e.location)

    # -- calls --------------------------------------------------------------------
    def _check_SCast(self, e: sast.SCast) -> tast.TExpr:
        target = e.type
        # vector(T,N)(scalar) broadcasts; T(v) converts
        expr = self.check_rvalue(e.expr)
        return self.convert(expr, target, e.location, explicit=True)

    def _check_SApply(self, e: sast.SApply) -> tast.TExpr:
        fn = self.check_expr(e.fn)
        args = [self.check_rvalue(a) for a in e.args]
        ftype: Optional[T.FunctionType] = None
        if isinstance(fn, (tast.TFuncLit, tast.TCallback)):
            ftype = fn.type.pointee
        elif fn.type.ispointer() and isinstance(fn.type.pointee, T.FunctionType):
            ftype = fn.type.pointee
        if ftype is None:
            # struct call syntax: obj(args) via the __apply metamethod
            struct = self._struct_of(fn.type)
            if struct is not None:
                struct.complete()
                hook = struct.metamethods.get("__apply")
                if hook is not None:
                    result = hook(Quote.from_expr(fn),
                                  *[Quote.from_expr(a) for a in args])
                    return self.check_expr(
                        self._quote_tree(result, e.location))
            raise TypeCheckError(
                f"called value has non-function type {fn.type}", e.location)
        return self._build_call(fn, ftype, args, e.location)

    def _build_call(self, fn, ftype: T.FunctionType, args, location) -> tast.TCall:
        nparams = len(ftype.parameters)
        if len(args) < nparams or (len(args) > nparams and not ftype.varargs):
            raise TypeCheckError(
                f"wrong number of arguments: expected "
                f"{nparams}{'+' if ftype.varargs else ''}, got {len(args)}",
                location)
        converted = [self.convert(a, p, location)
                     for a, p in zip(args, ftype.parameters)]
        # varargs default promotions (C): float->double, small ints->int
        for extra in args[nparams:]:
            ty = extra.type
            if ty is T.float32:
                extra = self.convert(extra, T.float64, location)
            elif isinstance(ty, T.PrimitiveType) and ty.isintegral() and ty.bytes < 4:
                extra = self.convert(extra, T.int32, location)
            elif ty is T.bool_:
                extra = tast.TCast(T.int32, extra, "numeric", location)
            converted.append(extra)
        return tast.TCall(fn, converted, ftype.returntype, location)

    def _check_SMethodCall(self, e: sast.SMethodCall) -> tast.TExpr:
        obj = self.check_expr(e.obj)
        struct = self._struct_of(obj.type)
        if struct is None:
            raise TypeCheckError(
                f"cannot invoke method {e.name!r} on non-struct type "
                f"{obj.type}", e.location)
        struct.complete()
        method = struct.methods.get(e.name)
        if method is None:
            hook = struct.metamethods.get("__methodmissing")
            if hook is None:
                raise TypeCheckError(
                    f"struct {struct} has no method {e.name!r}", e.location)
            arg_quotes = [Quote.from_expr(self.check_rvalue(a)) for a in e.args]
            result = hook(e.name, Quote.from_expr(obj), *arg_quotes)
            return self.check_expr(self._quote_tree(result, e.location))
        args = [self.check_rvalue(a) for a in e.args]
        receiver = self._method_receiver(obj, struct, method, e)
        if isinstance(method, Macro):
            result = method.fn(Quote.from_expr(receiver),
                               *[Quote.from_expr(a) for a in args])
            return self.check_expr(self._quote_tree(result, e.location))
        if isinstance(method, TerraFunction):
            ftype = type_of_function(method)
            if method not in self.referenced_functions:
                self.referenced_functions.append(method)
            lit = tast.TFuncLit(method, ftype, e.location)
            return self._build_call(lit, ftype, [receiver] + args, e.location)
        raise TypeCheckError(
            f"method {e.name!r} of {struct} is {method!r}, which is not "
            f"callable from Terra", e.location)

    def _method_receiver(self, obj: tast.TExpr, struct: T.StructType,
                         method, e) -> tast.TExpr:
        """Compute the receiver argument: methods taking ``&S`` get the
        object's address (auto-&), methods taking ``S`` get the value."""
        wants_pointer = True
        if isinstance(method, TerraFunction) and method.param_types:
            first = method.param_types[0]
            wants_pointer = first.ispointer()
        if obj.type.ispointer():
            return obj if wants_pointer else \
                tast.TDeref(obj, obj.type.pointee, e.location)
        if wants_pointer:
            if not obj.lvalue:
                raise TypeCheckError(
                    f"cannot invoke pointer-receiver method {e.name!r} on "
                    f"an rvalue of type {struct}", e.location)
            return tast.TAddressOf(obj, e.location)
        return obj

    def _check_SIntrinsic(self, e: sast.SIntrinsic) -> tast.TExpr:
        intr = lookup_intrinsic(e.name)
        if intr is None:
            raise TypeCheckError(f"unknown intrinsic {e.name!r}", e.location)
        args = [self.check_rvalue(a) for a in e.args]
        result = intr.typerule([a.type for a in args])
        return tast.TIntrinsic(e.name, args, result, e.location)

    # -- aggregates ------------------------------------------------------------
    def _check_SCtor(self, e: sast.SCtor) -> tast.TExpr:
        if e.type is not None and isinstance(e.type, T.ArrayType):
            return self._check_array_ctor(e)
        if e.type is not None:
            assert isinstance(e.type, T.StructType)
            return self._ctor_with_struct(e, e.type)
        # anonymous constructor: named fields -> fresh struct; else tuple
        values = [self.check_rvalue(f.value) for f in e.fields]
        names = [f.name for f in e.fields]
        if any(n is not None for n in names):
            anon = T.StructType()
            for i, (name, v) in enumerate(zip(names, values)):
                anon.add_entry(name if name is not None else f"_{i}", v.type)
            anon._anonymous_ctor = True
            return tast.TCtor(anon, values, e.location)
        tup = T.TupleType(tuple(v.type for v in values))
        return tast.TCtor(tup, values, e.location)

    def _check_array_ctor(self, e: sast.SCtor) -> tast.TExpr:
        aty = e.type
        assert isinstance(aty, T.ArrayType)
        if any(f.name is not None for f in e.fields):
            raise TypeCheckError("array constructors take positional values",
                                 e.location)
        if len(e.fields) > aty.count:
            raise TypeCheckError(
                f"too many initializers for {aty}", e.location)
        inits = [self.convert(self.check_rvalue(f.value), aty.elem, e.location)
                 for f in e.fields]
        while len(inits) < aty.count:
            inits.append(self._zero_expr(aty.elem, e.location))
        return tast.TCtor(aty, inits, e.location)

    def _ctor_with_struct(self, e: sast.SCtor,
                          struct: T.StructType) -> tast.TExpr:
        struct.complete()
        entries = struct.entries
        inits: dict[str, tast.TExpr] = {}
        positional = 0
        for f in e.fields:
            value = self.check_rvalue(f.value)
            if f.name is not None:
                if struct.entry_type(f.name) is None:
                    raise TypeCheckError(
                        f"struct {struct} has no field {f.name!r}", e.location)
                inits[f.name] = self.convert(value, struct.entry_type(f.name),
                                             e.location)
            else:
                if positional >= len(entries):
                    raise TypeCheckError(
                        f"too many initializers for {struct}", e.location)
                entry = entries[positional]
                positional += 1
                inits[entry.field] = self.convert(value, entry.type, e.location)
        ordered = []
        for entry in entries:
            if entry.field in inits:
                ordered.append(inits[entry.field])
            else:
                ordered.append(self._zero_expr(entry.type, e.location))
        return tast.TCtor(struct, ordered, e.location)

    def _ctor_to_struct(self, ctor: tast.TCtor, target: T.StructType,
                        location) -> Optional[tast.TExpr]:
        """Convert an anonymous constructor to a named struct (field-wise,
        positionally or by name)."""
        source = ctor.type
        assert isinstance(source, T.StructType)
        target.complete()
        if len(source.entries) > len(target.entries):
            return None
        by_name = getattr(source, "_anonymous_ctor", False) or \
            isinstance(source, T.TupleType) is False
        inits: list[tast.TExpr] = []
        try:
            if isinstance(source, T.TupleType):
                for i, entry in enumerate(target.entries):
                    if i < len(ctor.inits):
                        inits.append(self.convert(ctor.inits[i], entry.type,
                                                  location))
                    else:
                        inits.append(self._zero_expr(entry.type, location))
            else:
                provided = {en.field: init for en, init in
                            zip(source.entries, ctor.inits)}
                for entry in target.entries:
                    if entry.field in provided:
                        inits.append(self.convert(provided[entry.field],
                                                  entry.type, location))
                    else:
                        inits.append(self._zero_expr(entry.type, location))
        except TypeCheckError:
            return None
        return tast.TCtor(target, inits, location)

    def _zero_expr(self, ty: T.Type, location) -> tast.TExpr:
        if isinstance(ty, T.PrimitiveType):
            if ty.islogical():
                return tast.TConst(False, ty, location)
            return tast.TConst(0 if ty.isintegral() else 0.0, ty, location)
        if ty.ispointer():
            return tast.TNull(ty, location)
        if isinstance(ty, T.VectorType):
            zero = tast.TConst(0 if ty.elem.isintegral() else 0.0, ty.elem,
                               location)
            return tast.TCast(ty, zero, "broadcast", location)
        if isinstance(ty, T.ArrayType):
            return tast.TCtor(ty, [self._zero_expr(ty.elem, location)
                                   for _ in range(ty.count)], location)
        if isinstance(ty, T.StructType):
            ty.complete()
            return tast.TCtor(ty, [self._zero_expr(en.type, location)
                                   for en in ty.entries], location)
        raise TypeCheckError(f"cannot zero-initialize type {ty}", location)

    def _check_SLetIn(self, e: sast.SLetIn) -> tast.TExpr:
        outer = len(self.scope)
        self.defer_stack.append((False, []))
        stmts: list[tast.TStat] = []
        for s in e.block.statements:
            stmts.extend(self.check_stat(s))
        if len(e.exprs) != 1:
            raise TypeCheckError(
                "a statements-quote spliced into expression position must "
                "have exactly one 'in' expression", e.location)
        value = self.check_rvalue(e.exprs[0])
        _, defers = self.defer_stack.pop()
        for call in reversed(defers):
            stmts.append(tast.TExprStat(call, e.location))
        self._close_scope(outer)
        block = tast.TBlock(stmts, e.location)
        return tast.TLetIn(block, value, value.type, e.location)

    # ======================================================================
    # statements
    # ======================================================================
    def _close_scope(self, outer: int) -> None:
        """Forget the variables declared since the scope held ``outer``
        names (a dict pops the last inserted first): a symbol used after
        its binder's block is out of scope, as C and the interpreter's
        frames have it."""
        while len(self.scope) > outer:
            self.scope.popitem()

    def check_block(self, block: sast.SBlock) -> tast.TBlock:
        outer = len(self.scope)
        self.defer_stack.append((False, []))
        stmts: list[tast.TStat] = []
        for s in block.statements:
            stmts.extend(self.check_stat(s))
        _, defers = self.defer_stack.pop()
        for call in reversed(defers):
            stmts.append(tast.TExprStat(call, block.location))
        self._close_scope(outer)
        return tast.TBlock(stmts, block.location)

    def _loop_block(self, block: sast.SBlock) -> tast.TBlock:
        outer = len(self.scope)
        self.loop_depth += 1
        self.defer_stack.append((True, []))
        try:
            stmts: list[tast.TStat] = []
            for s in block.statements:
                stmts.extend(self.check_stat(s))
            _, defers = self.defer_stack.pop()
            for call in reversed(defers):
                stmts.append(tast.TExprStat(call, block.location))
            self._close_scope(outer)
            return tast.TBlock(stmts, block.location)
        finally:
            self.loop_depth -= 1

    def check_stat(self, s) -> list[tast.TStat]:
        method = getattr(self, "_check_" + type(s).__name__, None)
        if method is None:
            raise TypeCheckError(
                f"cannot typecheck statement {type(s).__name__}",
                getattr(s, "location", None))
        result = method(s)
        return result if isinstance(result, list) else [result]

    def _check_SVarDecl(self, s: sast.SVarDecl) -> list[tast.TStat]:
        inits = None
        if s.inits is not None:
            inits = [self.check_rvalue(x) for x in s.inits]
            # tuple unpacking: var a, b = f()  where f returns {A, B}
            if len(inits) == 1 and len(s.symbols) > 1 \
                    and isinstance(inits[0].type, T.TupleType):
                return self._unpack_decl(s, inits[0])
            if len(inits) != len(s.symbols):
                raise TypeCheckError(
                    f"variable declaration has {len(s.symbols)} names but "
                    f"{len(inits)} initializers", s.location)
        types: list[T.Type] = []
        conv_inits = []
        for i, sym in enumerate(s.symbols):
            declared = s.types[i] if i < len(s.types) else None
            if declared is None and sym.type is not None:
                declared = sym.type
            if inits is not None:
                init = inits[i]
                ty = declared if declared is not None else init.type
                if isinstance(ty, T.StructType):
                    ty.complete()
                conv_inits.append(self.convert(init, ty, s.location))
            else:
                if declared is None:
                    raise TypeCheckError(
                        f"variable {sym!r} needs a type annotation or an "
                        f"initializer", s.location)
                ty = declared
            self._check_complete(ty, s.location)
            if isinstance(ty, T.TupleType) and ty.isunit():
                raise TypeCheckError("cannot declare a variable of unit type",
                                     s.location)
            types.append(ty)
            self.scope[sym] = ty
        return [tast.TVarDecl(list(s.symbols), types,
                              conv_inits if inits is not None else None,
                              s.location)]

    def _unpack_decl(self, s: sast.SVarDecl, init: tast.TExpr) -> list[tast.TStat]:
        tup = init.type
        assert isinstance(tup, T.TupleType)
        if len(tup.element_types) != len(s.symbols):
            raise TypeCheckError(
                f"cannot unpack {len(tup.element_types)} values into "
                f"{len(s.symbols)} variables", s.location)
        temp = Symbol(tup, "unpack")
        self.scope[temp] = tup
        out: list[tast.TStat] = [
            tast.TVarDecl([temp], [tup], [init], s.location)]
        for i, sym in enumerate(s.symbols):
            declared = s.types[i] if i < len(s.types) else None
            ety = tup.element_types[i]
            field = tast.TSelect(tast.TVar(temp, tup, s.location), f"_{i}",
                                 ety, s.location)
            ty = declared if declared is not None else ety
            value = self.convert(field, ty, s.location)
            self.scope[sym] = ty
            out.append(tast.TVarDecl([sym], [ty], [value], s.location))
        return out

    def _check_SAssign(self, s: sast.SAssign) -> list[tast.TStat]:
        lhs = [self.check_expr(x) for x in s.lhs]
        for x in lhs:
            if not x.lvalue:
                raise TypeCheckError("cannot assign to an rvalue", s.location)
        rhs = [self.check_rvalue(x) for x in s.rhs]
        if len(rhs) == 1 and len(lhs) > 1 and isinstance(rhs[0].type, T.TupleType):
            return self._unpack_assign(s, lhs, rhs[0])
        if len(lhs) != len(rhs):
            raise TypeCheckError(
                f"assignment has {len(lhs)} targets but {len(rhs)} values",
                s.location)
        rhs = [self.convert(r, l.type, s.location) for l, r in zip(lhs, rhs)]
        return [tast.TAssign(lhs, rhs, s.location)]

    def _unpack_assign(self, s, lhs, init) -> list[tast.TStat]:
        tup = init.type
        if len(tup.element_types) != len(lhs):
            raise TypeCheckError(
                f"cannot unpack {len(tup.element_types)} values into "
                f"{len(lhs)} targets", s.location)
        temp = Symbol(tup, "unpack")
        self.scope[temp] = tup
        out: list[tast.TStat] = [tast.TVarDecl([temp], [tup], [init], s.location)]
        assigns_l, assigns_r = [], []
        for i, target in enumerate(lhs):
            field = tast.TSelect(tast.TVar(temp, tup, s.location), f"_{i}",
                                 tup.element_types[i], s.location)
            assigns_l.append(target)
            assigns_r.append(self.convert(field, target.type, s.location))
        out.append(tast.TAssign(assigns_l, assigns_r, s.location))
        return out

    def _check_SIf(self, s: sast.SIf) -> tast.TStat:
        branches = []
        for cond, body in s.branches:
            tcond = self._check_cond(cond, s.location)
            branches.append((tcond, self.check_block(body)))
        orelse = self.check_block(s.orelse) if s.orelse is not None else None
        return tast.TIf(branches, orelse, s.location)

    def _check_cond(self, cond, location) -> tast.TExpr:
        typed = self.check_rvalue(cond)
        if typed.type is not T.bool_:
            raise TypeCheckError(
                f"condition must be bool, got {typed.type} (Terra has no "
                f"truthiness)", location)
        return typed

    def _check_SWhile(self, s: sast.SWhile) -> tast.TStat:
        cond = self._check_cond(s.cond, s.location)
        return tast.TWhile(cond, self._loop_block(s.body), s.location)

    def _check_SRepeat(self, s: sast.SRepeat) -> tast.TStat:
        # condition sees the loop body's scope in Lua; Terra scopes the body
        # separately — we follow Terra and check the body first.
        body = self._loop_block(s.body)
        cond = self._check_cond(s.cond, s.location)
        return tast.TRepeat(body, cond, s.location)

    def _check_SForNum(self, s: sast.SForNum) -> tast.TStat:
        start = self.check_rvalue(s.start)
        limit = self.check_rvalue(s.limit)
        step = self.check_rvalue(s.step) if s.step is not None else None
        var_type = s.symbol.type
        if var_type is None:
            # unify start and limit types so `for i = 0, n` with an int64
            # bound iterates at the bound's width
            var_type = start.type
            if isinstance(var_type, T.PrimitiveType) \
                    and isinstance(limit.type, T.PrimitiveType) \
                    and var_type.isarithmetic() and limit.type.isarithmetic():
                var_type = T.common_primitive(var_type, limit.type)
        if not var_type.isarithmetic():
            raise TypeCheckError(
                f"for-loop variable must be arithmetic, got {var_type}",
                s.location)
        start = self.convert(start, var_type, s.location)
        limit = self.convert(limit, var_type, s.location)
        step_sign = 1
        if step is not None:
            step = self.convert(step, var_type, s.location)
            if isinstance(step, tast.TConst):
                step_sign = 1 if step.value >= 0 else -1
            else:
                step_sign = 0
        outer = len(self.scope)
        self.scope[s.symbol] = var_type
        body = self._loop_block(s.body)
        self._close_scope(outer)
        return tast.TForNum(s.symbol, var_type, start, limit, step, body,
                            step_sign, s.location)

    def _check_SDoStat(self, s: sast.SDoStat) -> tast.TStat:
        return tast.TDoStat(self.check_block(s.body), s.location)

    def _check_SReturn(self, s: sast.SReturn) -> tast.TStat:
        exprs = [self.check_rvalue(x) for x in s.exprs]
        # `return f()` where f returns unit: evaluate, then return nothing
        if len(exprs) == 1 and isinstance(exprs[0].type, T.TupleType) \
                and exprs[0].type.isunit():
            stmts: list[tast.TStat] = [tast.TExprStat(exprs[0], s.location)]
            stmts.extend(self._defers_for_return(s.location))
            stmts.append(tast.TReturn(None, s.location))
            target = self.declared_ret if self.declared_ret is not None \
                else self.inferred_ret
            if target is None:
                self.inferred_ret = T.unit
            elif not (isinstance(target, T.TupleType) and target.isunit()):
                raise TypeCheckError(
                    f"function {self.func.name!r} must return {target}",
                    s.location)
            return tast.TDoStat(tast.TBlock(stmts, s.location), s.location)
        if len(exprs) == 0:
            actual: T.Type = T.unit
            value: Optional[tast.TExpr] = None
        elif len(exprs) == 1:
            actual = exprs[0].type
            value = exprs[0]
        else:
            actual = T.TupleType(tuple(x.type for x in exprs))
            value = tast.TCtor(actual, exprs, s.location)
        target = self.declared_ret if self.declared_ret is not None \
            else self.inferred_ret
        if target is None:
            self.inferred_ret = actual
            target = actual
        if isinstance(target, T.TupleType) and target.isunit():
            if value is not None:
                raise TypeCheckError(
                    f"function {self.func.name!r} returns no values but a "
                    f"return statement has one", s.location)
        elif value is None:
            raise TypeCheckError(
                f"function {self.func.name!r} must return a value of type "
                f"{target}", s.location)
        else:
            value = self.convert(value, target, s.location)
        defers = self._defers_for_return(s.location)
        if not defers:
            return tast.TReturn(value, s.location)
        # the return value is evaluated *before* deferred calls run
        stmts: list[tast.TStat] = []
        if value is not None:
            temp = Symbol(value.type, "retval")
            self.scope[temp] = value.type
            stmts.append(tast.TVarDecl([temp], [value.type], [value],
                                       s.location))
            value = tast.TVar(temp, value.type, s.location)
        stmts.extend(defers)
        stmts.append(tast.TReturn(value, s.location))
        return tast.TDoStat(tast.TBlock(stmts, s.location), s.location)

    def _defers_for_return(self, location) -> list[tast.TStat]:
        out = []
        for _, defers in reversed(self.defer_stack):
            for call in reversed(defers):
                out.append(tast.TExprStat(call, location))
        return out

    def _check_SBreak(self, s: sast.SBreak) -> tast.TStat:
        if self.loop_depth == 0:
            raise TypeCheckError("break outside of a loop", s.location)
        stmts: list[tast.TStat] = []
        for is_loop, defers in reversed(self.defer_stack):
            for call in reversed(defers):
                stmts.append(tast.TExprStat(call, s.location))
            if is_loop:
                break
        stmts.append(tast.TBreak(s.location))
        if len(stmts) == 1:
            return stmts[0]
        return tast.TDoStat(tast.TBlock(stmts, s.location), s.location)

    def _check_SExprStat(self, s: sast.SExprStat) -> tast.TStat:
        expr = self.check_expr(s.expr)
        return tast.TExprStat(expr, s.location)

    def _check_SDefer(self, s: sast.SDefer) -> list[tast.TStat]:
        call = self.check_expr(s.call)
        if not isinstance(call, tast.TCall):
            raise TypeCheckError("defer requires a function call", s.location)
        self.defer_stack[-1][1].append(call)
        return []
