"""The typed-IR verifier.

Every transform pass rewrites the tree in place; a bug there shows up as
a silent miscompile (the C emitter happily prints a tree with the wrong
types).  The verifier turns such bugs into immediate
:class:`~repro.errors.IRVerifyError` diagnostics.  It re-checks the
invariants the typechecker established:

* every expression node carries a resolved Terra ``type``;
* every variable reference is in scope and has its declared type
  (parameters, ``var`` declarations, loop variables, ``let-in`` blocks;
  ``repeat``'s condition sees the body's scope, as in Lua);
* lvalue positions (assignment targets, ``&`` operands) are addressable;
* operator/operand types agree exactly — types are interned, so identity
  comparison is the right notion of equality (pointer arithmetic indexes
  with ``int64``, comparisons produce ``bool`` or a bool vector, shifts
  take their left operand's type, everything else is unified);
* casts are between representable types for their ``kind``;
* calls pass each fixed parameter at exactly the declared type, and
  returns carry exactly the function's return type.

Enable with ``REPRO_TERRA_VERIFY_IR=1`` (the pass manager then runs it
after typechecking and again after every transform), or call
:func:`verify_function` directly.
"""

from __future__ import annotations

from ..core import tast
from ..core import types as T
from ..core.symbols import Symbol
from ..errors import IRVerifyError
from .manager import Pass, register_pass

_CAST_KINDS = ("numeric", "pointer", "broadcast", "vector", "ptr-int",
               "int-ptr", "aggregate")


def verify_function(typed, where: str = "", body=None) -> None:
    """Check one TypedFunction; raises IRVerifyError on the first
    violation, annotated with ``where`` (e.g. "after pass 'fold'").

    ``body`` checks another tree of the same function — the C emitter
    passes the pipeline level it is about to emit, where ``typed.body``
    is the typechecked tree that level was derived from."""
    _Verifier(typed, where, body).run()


@register_pass
class VerifyPass(Pass):
    """The verifier as a schedulable pass (changes nothing)."""

    name = "verify"

    def run(self, typed) -> bool:
        verify_function(typed)
        return False


class _Verifier:
    def __init__(self, typed, where: str = "", body=None):
        self.typed = typed
        self.where = where
        self.body = typed.body if body is None else body

    def err(self, node, msg: str) -> None:
        ctx = f" {self.where}" if self.where else ""
        loc = getattr(node, "location", None)
        at = f" at {loc}" if loc is not None else ""
        raise IRVerifyError(
            f"IR verification failed in {self.typed.name!r}{ctx}{at}: "
            f"{msg} [{type(node).__name__}]")

    def run(self) -> None:
        typed = self.typed
        if not isinstance(self.body, tast.TBlock):
            self.err(self.body, "function body is not a TBlock")
        params: dict[Symbol, T.Type] = {}
        for sym, ty in zip(typed.param_symbols, typed.type.parameters):
            params[sym] = ty
        self.scopes: list[dict[Symbol, T.Type]] = [params]
        self.block(self.body)

    # -- scope handling ----------------------------------------------------------

    def declare(self, sym: Symbol, ty: T.Type) -> None:
        self.scopes[-1][sym] = ty

    def lookup(self, sym: Symbol):
        for scope in reversed(self.scopes):
            if sym in scope:
                return scope[sym]
        return None

    # -- statements --------------------------------------------------------------

    def block(self, b) -> None:
        if not isinstance(b, tast.TBlock):
            self.err(b, "expected a TBlock")
        self.scopes.append({})
        for s in b.statements:
            self.stat(s)
        self.scopes.pop()

    def stat(self, s) -> None:
        if not isinstance(s, tast.TStat):
            self.err(s, "statement position holds a non-statement")
        if isinstance(s, tast.TVarDecl):
            if len(s.symbols) != len(s.types):
                self.err(s, f"declares {len(s.symbols)} names with "
                            f"{len(s.types)} types")
            if s.inits is not None:
                if len(s.inits) != len(s.symbols):
                    self.err(s, f"declares {len(s.symbols)} names with "
                                f"{len(s.inits)} initializers")
                for init, ty in zip(s.inits, s.types):
                    self.expr(init)
                    if init.type is not ty:
                        self.err(s, f"initializer has type {init.type}, "
                                    f"variable declared {ty}")
            for sym, ty in zip(s.symbols, s.types):
                self.declare(sym, ty)
        elif isinstance(s, tast.TAssign):
            if len(s.lhs) != len(s.rhs):
                self.err(s, f"assigns {len(s.rhs)} values to "
                            f"{len(s.lhs)} targets")
            for target, value in zip(s.lhs, s.rhs):
                self.expr(target)
                self.expr(value)
                if not target.lvalue:
                    self.err(target, "assignment target is not an lvalue")
                if value.type is not target.type:
                    self.err(s, f"assigns {value.type} to an lvalue of "
                                f"type {target.type}")
        elif isinstance(s, tast.TIf):
            for cond, body in s.branches:
                self.cond(cond)
                self.block(body)
            if s.orelse is not None:
                self.block(s.orelse)
        elif isinstance(s, tast.TWhile):
            self.cond(s.cond)
            self.block(s.body)
        elif isinstance(s, tast.TRepeat):
            # repeat/until: the condition sees the body's scope
            self.scopes.append({})
            for inner in s.body.statements:
                self.stat(inner)
            self.cond(s.cond)
            self.scopes.pop()
        elif isinstance(s, tast.TForNum):
            if not s.var_type.isarithmetic():
                self.err(s, f"loop variable has non-arithmetic type "
                            f"{s.var_type}")
            for bound in (s.start, s.limit, s.step):
                if bound is None:
                    continue
                self.expr(bound)
                if bound.type is not s.var_type:
                    self.err(s, f"loop bound has type {bound.type}, "
                                f"loop variable is {s.var_type}")
            self.scopes.append({s.symbol: s.var_type})
            self.block(s.body)
            self.scopes.pop()
        elif isinstance(s, tast.TDoStat):
            self.block(s.body)
        elif isinstance(s, tast.TReturn):
            rt = self.typed.type.returntype
            if s.expr is None:
                if self.typed.type.returns:
                    self.err(s, f"bare return in a function returning {rt}")
            else:
                self.expr(s.expr)
                if s.expr.type is not rt:
                    self.err(s, f"returns {s.expr.type}, function "
                                f"returns {rt}")
        elif isinstance(s, tast.TExprStat):
            self.expr(s.expr)
        elif isinstance(s, tast.TBreak):
            pass
        else:
            self.err(s, "unknown statement node")

    def cond(self, e) -> None:
        self.expr(e)
        if e.type is not T.bool_:
            self.err(e, f"condition has type {e.type}, expected bool")

    # -- expressions -------------------------------------------------------------

    def expr(self, e) -> None:
        if not isinstance(e, tast.TExpr):
            self.err(e, "expression position holds a non-expression")
        ty = getattr(e, "type", None)
        if not isinstance(ty, T.Type):
            self.err(e, f"expression carries no resolved type (got {ty!r})")
        if isinstance(e, tast.TConst):
            self.const(e)
        elif isinstance(e, tast.TString):
            if ty is not T.rawstring:
                self.err(e, f"string constant typed {ty}")
        elif isinstance(e, tast.TNull):
            if not ty.ispointer():
                self.err(e, f"null constant typed {ty} (not a pointer)")
        elif isinstance(e, tast.TVar):
            declared = self.lookup(e.symbol)
            if declared is None:
                self.err(e, f"variable {e.symbol.name} used outside any "
                            f"declaring scope")
            if ty is not declared:
                self.err(e, f"variable {e.symbol.name} used at type {ty}, "
                            f"declared {declared}")
        elif isinstance(e, tast.TGlobal):
            if ty is not e.glob.type:
                self.err(e, f"global reference typed {ty}, global is "
                            f"{e.glob.type}")
        elif isinstance(e, (tast.TFuncLit, tast.TCallback)):
            if not (ty.ispointer()
                    and isinstance(ty.pointee, T.FunctionType)):
                self.err(e, f"function literal typed {ty}")
        elif isinstance(e, tast.TCast):
            self.cast(e)
        elif isinstance(e, tast.TCall):
            self.call(e)
        elif isinstance(e, tast.TSelect):
            self.select(e)
        elif isinstance(e, tast.TIndex):
            self.index(e)
        elif isinstance(e, tast.TVectorIndex):
            self.vector_index(e)
        elif isinstance(e, tast.TDeref):
            self.expr(e.ptr)
            if not e.ptr.type.ispointer():
                self.err(e, f"dereference of non-pointer {e.ptr.type}")
            if ty is not e.ptr.type.pointee:
                self.err(e, f"dereference of {e.ptr.type} typed {ty}")
        elif isinstance(e, tast.TAddressOf):
            self.expr(e.operand)
            if not e.operand.lvalue:
                self.err(e, "address-of a non-lvalue")
            if ty is not T.pointer(e.operand.type):
                self.err(e, f"&{e.operand.type} typed {ty}")
        elif isinstance(e, tast.TUnOp):
            self.unop(e)
        elif isinstance(e, tast.TBinOp):
            self.binop(e)
        elif isinstance(e, tast.TLogical):
            self.expr(e.lhs)
            self.expr(e.rhs)
            if not (e.lhs.type is T.bool_ and e.rhs.type is T.bool_
                    and ty is T.bool_):
                self.err(e, f"short-circuit {e.op} over {e.lhs.type} and "
                            f"{e.rhs.type}")
        elif isinstance(e, tast.TCtor):
            self.ctor(e)
        elif isinstance(e, tast.TLetIn):
            self.scopes.append({})
            for s in e.block.statements:
                self.stat(s)
            self.expr(e.expr)  # the value sees the block's scope
            self.scopes.pop()
            if ty is not e.expr.type:
                self.err(e, f"let-in typed {ty}, value has {e.expr.type}")
        elif isinstance(e, tast.TIntrinsic):
            for a in e.args:
                self.expr(a)
            self.intrinsic(e)
        else:
            self.err(e, "unknown expression node")

    def const(self, e: tast.TConst) -> None:
        ty = e.type
        if isinstance(ty, T.VectorType):
            # vector constants (vectorizer splats/iotas/identities) hold
            # one scalar per lane
            if not isinstance(e.value, (list, tuple)):
                self.err(e, f"vector constant holds {e.value!r}")
            if len(e.value) != ty.count:
                self.err(e, f"vector constant has {len(e.value)} lanes "
                            f"for {ty}")
            for lane in e.value:
                self.const(tast.TConst(lane, ty.elem))
            return
        if not isinstance(ty, T.PrimitiveType):
            self.err(e, f"constant of non-primitive type {ty}")
        if ty.isintegral():
            if not isinstance(e.value, int) or isinstance(e.value, bool):
                self.err(e, f"integer constant holds {e.value!r}")
            bits = ty.bytes * 8
            lo = -(1 << (bits - 1)) if ty.signed else 0
            hi = (1 << (bits - 1)) - 1 if ty.signed else (1 << bits) - 1
            if not lo <= e.value <= hi:
                self.err(e, f"constant {e.value} not representable in {ty}")
        elif ty.islogical():
            if e.value not in (True, False, 0, 1):
                self.err(e, f"bool constant holds {e.value!r}")
        elif ty.isfloat():
            if not isinstance(e.value, (int, float)):
                self.err(e, f"float constant holds {e.value!r}")

    def intrinsic(self, e: tast.TIntrinsic) -> None:
        # vector memory intrinsics are produced only by the vectorizer;
        # their typing is load-bearing for the C emitter's memcpy forms
        if e.name == "vload":
            if len(e.args) != 1 or not e.args[0].type.ispointer():
                self.err(e, "vload takes one pointer argument")
            if not (isinstance(e.type, T.VectorType)
                    and e.type.elem is e.args[0].type.pointee):
                self.err(e, f"vload of {e.args[0].type} typed {e.type}")
        elif e.name == "vstore":
            if len(e.args) != 2 or not e.args[0].type.ispointer():
                self.err(e, "vstore takes a pointer and a vector")
            vty = e.args[1].type
            if not (isinstance(vty, T.VectorType)
                    and vty.elem is e.args[0].type.pointee):
                self.err(e, f"vstore of {vty} through {e.args[0].type}")
            if e.type is not T.unit:
                self.err(e, f"vstore typed {e.type}, expected unit")

    def cast(self, e: tast.TCast) -> None:
        self.expr(e.expr)
        src, dst, kind = e.expr.type, e.type, e.kind
        if kind not in _CAST_KINDS:
            self.err(e, f"unknown cast kind {kind!r}")
        if kind == "numeric":
            if not (isinstance(src, T.PrimitiveType)
                    and isinstance(dst, T.PrimitiveType)):
                self.err(e, f"numeric cast {src} -> {dst}")
        elif kind == "pointer":
            if not (src.ispointer() and dst.ispointer()):
                self.err(e, f"pointer cast {src} -> {dst}")
        elif kind == "ptr-int":
            if not (src.ispointer() and dst.isintegral()):
                self.err(e, f"ptr-int cast {src} -> {dst}")
        elif kind == "int-ptr":
            if not (src.isintegral() and dst.ispointer()):
                self.err(e, f"int-ptr cast {src} -> {dst}")
        elif kind == "broadcast":
            if not (isinstance(dst, T.VectorType) and src is dst.elem):
                self.err(e, f"broadcast cast {src} -> {dst}")
        elif kind == "vector":
            if not (isinstance(src, T.VectorType)
                    and isinstance(dst, T.VectorType)
                    and src.count == dst.count):
                self.err(e, f"vector cast {src} -> {dst}")
        elif kind == "aggregate":
            if not isinstance(dst, T.StructType):
                self.err(e, f"aggregate cast {src} -> {dst}")

    def call(self, e: tast.TCall) -> None:
        self.expr(e.fn)
        fty = e.fn.type
        if not (fty.ispointer() and isinstance(fty.pointee, T.FunctionType)):
            self.err(e, f"call through non-function type {fty}")
        ftype = fty.pointee
        params = ftype.parameters
        if len(e.args) < len(params) or \
                (len(e.args) > len(params) and not ftype.varargs):
            self.err(e, f"call passes {len(e.args)} args to a function of "
                        f"{len(params)} parameters")
        for i, a in enumerate(e.args):
            self.expr(a)
            if i < len(params) and a.type is not params[i]:
                self.err(e, f"argument {i} has type {a.type}, parameter "
                            f"is {params[i]}")
        if e.type is not ftype.returntype:
            self.err(e, f"call typed {e.type}, function returns "
                        f"{ftype.returntype}")

    def select(self, e: tast.TSelect) -> None:
        self.expr(e.obj)
        oty = e.obj.type
        if not isinstance(oty, T.StructType):
            self.err(e, f"field access on non-struct {oty}")
        for entry in oty.entries:
            if entry.field == e.field:
                if e.type is not entry.type:
                    self.err(e, f"field {e.field!r} typed {e.type}, "
                                f"struct declares {entry.type}")
                return
        self.err(e, f"struct {oty} has no field {e.field!r}")

    def index(self, e: tast.TIndex) -> None:
        self.expr(e.obj)
        self.expr(e.index)
        if e.index.type is not T.int64:
            self.err(e, f"index has type {e.index.type}, expected int64")
        oty = e.obj.type
        if oty.ispointer():
            elem = oty.pointee
        elif isinstance(oty, T.ArrayType):
            elem = oty.elem
        else:
            self.err(e, f"indexing non-indexable type {oty}")
        if e.type is not elem:
            self.err(e, f"index into {oty} typed {e.type}")

    def vector_index(self, e: tast.TVectorIndex) -> None:
        self.expr(e.obj)
        self.expr(e.index)
        oty = e.obj.type
        if not isinstance(oty, T.VectorType):
            self.err(e, f"vector-index of non-vector {oty}")
        if e.index.type is not T.int64:
            self.err(e, f"lane index has type {e.index.type}, expected int64")
        if e.type is not oty.elem:
            self.err(e, f"lane of {oty} typed {e.type}")

    def unop(self, e: tast.TUnOp) -> None:
        self.expr(e.operand)
        ot = e.operand.type
        if e.op == "-":
            if not (ot is e.type and ot.isarithmetic()):
                self.err(e, f"negate of {ot} typed {e.type}")
        elif e.op == "not":
            if not (ot is e.type and (ot.islogical() or ot.isintegral())):
                self.err(e, f"'not' of {ot} typed {e.type}")
        else:
            self.err(e, f"unknown unary operator {e.op!r}")

    def binop(self, e: tast.TBinOp) -> None:
        self.expr(e.lhs)
        self.expr(e.rhs)
        op, lt, rt, ty = e.op, e.lhs.type, e.rhs.type, e.type
        if op in ("+", "-", "*", "/", "%"):
            if lt.ispointer():
                if op == "-" and rt.ispointer():
                    if lt is not rt or ty is not T.int64:
                        self.err(e, f"pointer difference {lt} - {rt} "
                                    f"typed {ty}")
                    return
                # pointer arithmetic indexes with int64 (typechecker
                # inserts the conversion)
                if op not in ("+", "-") or rt is not T.int64 \
                        or ty is not lt:
                    self.err(e, f"pointer arithmetic {lt} {op} {rt} "
                                f"typed {ty}")
                return
            if not (lt is rt and lt is ty and ty.isarithmetic()):
                self.err(e, f"arithmetic {op} over {lt} and {rt} typed {ty}")
        elif op in ("<", ">", "<=", ">=", "==", "~="):
            if lt is not rt:
                self.err(e, f"comparison {op} over unequal types "
                            f"{lt} and {rt}")
            if isinstance(lt, T.VectorType):
                if ty is not T.vector(T.bool_, lt.count):
                    self.err(e, f"vector comparison typed {ty}")
            elif ty is not T.bool_:
                self.err(e, f"comparison typed {ty}, expected bool")
        elif op in ("<<", ">>"):
            if not (lt.isintegral() and rt.isintegral() and ty is lt):
                self.err(e, f"shift {op} over {lt} and {rt} typed {ty}")
            if isinstance(lt, T.PrimitiveType) and rt is not lt:
                self.err(e, f"scalar shift amount has type {rt}, "
                            f"expected {lt}")
        elif op in ("&", "|", "^"):
            if not (lt is rt and lt is ty and ty.isintegral()):
                self.err(e, f"bitwise {op} over {lt} and {rt} typed {ty}")
        elif op in ("and", "or"):
            # non-short-circuit and/or: integer or vector-of-bool forms
            # (scalar bools become TLogical)
            ok = lt is rt and lt is ty and \
                (ty.isintegral()
                 or (isinstance(ty, T.VectorType) and ty.islogical()))
            if not ok:
                self.err(e, f"bitwise {op} over {lt} and {rt} typed {ty}")
        else:
            self.err(e, f"unknown binary operator {op!r}")

    def ctor(self, e: tast.TCtor) -> None:
        for init in e.inits:
            self.expr(init)
        ty = e.type
        if isinstance(ty, T.ArrayType):
            if len(e.inits) != ty.count:
                self.err(e, f"array constructor has {len(e.inits)} "
                            f"initializers for {ty}")
            for init in e.inits:
                if init.type is not ty.elem:
                    self.err(e, f"array element init typed {init.type}, "
                                f"element type is {ty.elem}")
        elif isinstance(ty, T.VectorType):
            if len(e.inits) != ty.count:
                self.err(e, f"vector constructor has {len(e.inits)} "
                            f"initializers for {ty}")
            for init in e.inits:
                if init.type is not ty.elem:
                    self.err(e, f"vector lane init typed {init.type}, "
                                f"lane type is {ty.elem}")
        elif isinstance(ty, T.TupleType):
            if len(e.inits) != len(ty.element_types):
                self.err(e, f"tuple constructor has {len(e.inits)} "
                            f"initializers for {ty}")
            for init, et in zip(e.inits, ty.element_types):
                if init.type is not et:
                    self.err(e, f"tuple element init typed {init.type}, "
                                f"element type is {et}")
        elif not isinstance(ty, T.StructType):
            self.err(e, f"constructor of non-aggregate type {ty}")
        # plain structs (possibly unions) are checked loosely: entry
        # count varies with union groups, so only the child expressions
        # themselves are verified
