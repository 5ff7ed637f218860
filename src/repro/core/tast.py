"""Typed Terra IR — the output of the lazy typechecker.

Every expression node carries a ``type`` and an ``lvalue`` flag.  Both
backends (the gcc C emitter and the reference interpreter) consume exactly
this IR; implicit conversions have been made explicit as ``TCast`` nodes,
method calls are resolved to direct calls, user-defined ``__cast``
metamethods have been expanded, and ``defer`` has been lowered away.
"""

from __future__ import annotations

import threading
from typing import Optional, Sequence

from . import types as T
from .symbols import Symbol


class TNode:
    _fields: tuple[str, ...] = ()

    def __init__(self, location=None):
        self.location = location

    def __repr__(self) -> str:
        parts = ", ".join(f"{f}={getattr(self, f, None)!r}" for f in self._fields)
        return f"{type(self).__name__}({parts})"


class TExpr(TNode):
    type: T.Type
    lvalue: bool = False


class TConst(TExpr):
    _fields = ("value", "type")

    def __init__(self, value, type: T.Type, location=None):  # noqa: A002
        super().__init__(location)
        self.value = value
        self.type = type


class TString(TExpr):
    """A string constant of type rawstring; backends intern the bytes."""

    _fields = ("value",)

    def __init__(self, value: str, location=None):
        super().__init__(location)
        self.value = value
        self.type = T.rawstring


class TNull(TExpr):
    _fields = ("type",)

    def __init__(self, type: T.Type, location=None):  # noqa: A002
        super().__init__(location)
        self.type = type


class TVar(TExpr):
    lvalue = True
    _fields = ("symbol", "type")

    def __init__(self, symbol: Symbol, type: T.Type, location=None):  # noqa: A002
        super().__init__(location)
        self.symbol = symbol
        self.type = type


class TGlobal(TExpr):
    lvalue = True
    _fields = ("glob",)

    def __init__(self, glob, location=None):
        super().__init__(location)
        self.glob = glob
        self.type = glob.type


class TFuncLit(TExpr):
    """A reference to a Terra function used as a value (function pointer)."""

    _fields = ("func",)

    def __init__(self, func, ftype: "T.FunctionType | None" = None,
                 location=None):
        super().__init__(location)
        self.func = func
        if ftype is None:
            ftype = func.gettype()
        self.type = T.pointer(ftype)


class TCallback(TExpr):
    _fields = ("callback",)

    def __init__(self, callback, location=None):
        super().__init__(location)
        self.callback = callback
        self.type = T.pointer(callback.type)


class TCast(TExpr):
    """An explicit or compiler-inserted conversion.  ``kind`` is one of
    ``"numeric"``, ``"pointer"``, ``"broadcast"`` (scalar->vector),
    ``"vector"`` (elementwise), ``"ptr-int"``, ``"int-ptr"``,
    ``"aggregate"`` (anonymous struct -> named struct, field by field)."""

    _fields = ("type", "expr", "kind")

    def __init__(self, type: T.Type, expr: TExpr, kind: str,  # noqa: A002
                 location=None):
        super().__init__(location)
        self.type = type
        self.expr = expr
        self.kind = kind


class TCall(TExpr):
    """A call.  ``fn`` is a TFuncLit (direct), TCallback, or a pointer-typed
    expression (indirect)."""

    _fields = ("fn", "args", "type")

    def __init__(self, fn: TExpr, args: Sequence[TExpr], type: T.Type,  # noqa: A002
                 location=None):
        super().__init__(location)
        self.fn = fn
        self.args = list(args)
        self.type = type


class TSelect(TExpr):
    """Struct field access; ``obj`` is struct-typed (auto-deref of pointers
    is made explicit with TDeref by the typechecker)."""

    _fields = ("obj", "field", "type")

    def __init__(self, obj: TExpr, field: str, type: T.Type,  # noqa: A002
                 location=None):
        super().__init__(location)
        self.obj = obj
        self.field = field
        self.type = type

    @property
    def lvalue(self) -> bool:
        return self.obj.lvalue


class TIndex(TExpr):
    """``a[i]`` where ``a`` is pointer (lvalue result), array or vector."""

    _fields = ("obj", "index", "type")

    def __init__(self, obj: TExpr, index: TExpr, type: T.Type,  # noqa: A002
                 location=None):
        super().__init__(location)
        self.obj = obj
        self.index = index
        self.type = type

    @property
    def lvalue(self) -> bool:
        if self.obj.type.ispointer():
            return True
        return self.obj.lvalue


class TDeref(TExpr):
    lvalue = True
    _fields = ("ptr", "type")

    def __init__(self, ptr: TExpr, type: T.Type, location=None):  # noqa: A002
        super().__init__(location)
        self.ptr = ptr
        self.type = type


class TAddressOf(TExpr):
    _fields = ("operand", "type")

    def __init__(self, operand: TExpr, location=None):
        super().__init__(location)
        self.operand = operand
        self.type = T.pointer(operand.type)


class TUnOp(TExpr):
    """``-`` (negate), ``not`` (logical or bitwise complement)."""

    _fields = ("op", "operand", "type")

    def __init__(self, op: str, operand: TExpr, type: T.Type,  # noqa: A002
                 location=None):
        super().__init__(location)
        self.op = op
        self.operand = operand
        self.type = type


class TBinOp(TExpr):
    _fields = ("op", "lhs", "rhs", "type")

    def __init__(self, op: str, lhs: TExpr, rhs: TExpr, type: T.Type,  # noqa: A002
                 location=None):
        super().__init__(location)
        self.op = op
        self.lhs = lhs
        self.rhs = rhs
        self.type = type


class TLogical(TExpr):
    """Short-circuit ``and``/``or`` on scalar booleans."""

    _fields = ("op", "lhs", "rhs")

    def __init__(self, op: str, lhs: TExpr, rhs: TExpr, location=None):
        super().__init__(location)
        self.op = op
        self.lhs = lhs
        self.rhs = rhs
        self.type = T.bool_


class TCtor(TExpr):
    """A fully-resolved aggregate constructor: one init expression per
    entry of ``type`` (zero-fill is explicit as TConst/TCtor zeros)."""

    _fields = ("type", "inits")

    def __init__(self, type: T.Type, inits: Sequence[TExpr],  # noqa: A002
                 location=None):
        super().__init__(location)
        self.type = type
        self.inits = list(inits)


class TLetIn(TExpr):
    """Statements followed by a value (spliced statements-quote with
    ``in``); gcc backend lowers to a statement expression."""

    _fields = ("block", "expr", "type")

    def __init__(self, block: "TBlock", expr: TExpr, type: T.Type,  # noqa: A002
                 location=None):
        super().__init__(location)
        self.block = block
        self.expr = expr
        self.type = type


class TIntrinsic(TExpr):
    _fields = ("name", "args", "type")

    def __init__(self, name: str, args: Sequence[TExpr], type: T.Type,  # noqa: A002
                 location=None):
        super().__init__(location)
        self.name = name
        self.args = list(args)
        self.type = type


class TVectorIndex(TExpr):
    """Reading/writing one lane of a vector lvalue."""

    _fields = ("obj", "index", "type")

    def __init__(self, obj: TExpr, index: TExpr, type: T.Type,  # noqa: A002
                 location=None):
        super().__init__(location)
        self.obj = obj
        self.index = index
        self.type = type

    @property
    def lvalue(self) -> bool:
        return self.obj.lvalue


# -- statements -----------------------------------------------------------------

class TStat(TNode):
    pass


class TBlock(TNode):
    _fields = ("statements",)

    def __init__(self, statements: Sequence[TStat], location=None):
        super().__init__(location)
        self.statements = list(statements)


class TVarDecl(TStat):
    _fields = ("symbols", "types", "inits")

    def __init__(self, symbols: Sequence[Symbol], types: Sequence[T.Type],
                 inits: Optional[Sequence[TExpr]], location=None):
        super().__init__(location)
        self.symbols = list(symbols)
        self.types = list(types)
        self.inits = list(inits) if inits is not None else None


class TAssign(TStat):
    _fields = ("lhs", "rhs")

    def __init__(self, lhs: Sequence[TExpr], rhs: Sequence[TExpr], location=None):
        super().__init__(location)
        self.lhs = list(lhs)
        self.rhs = list(rhs)


class TIf(TStat):
    _fields = ("branches", "orelse")

    def __init__(self, branches: Sequence[tuple[TExpr, TBlock]],
                 orelse: Optional[TBlock], location=None):
        super().__init__(location)
        self.branches = list(branches)
        self.orelse = orelse


class TWhile(TStat):
    _fields = ("cond", "body")

    def __init__(self, cond: TExpr, body: TBlock, location=None):
        super().__init__(location)
        self.cond = cond
        self.body = body


class TRepeat(TStat):
    _fields = ("body", "cond")

    def __init__(self, body: TBlock, cond: TExpr, location=None):
        super().__init__(location)
        self.body = body
        self.cond = cond


class TForNum(TStat):
    """Half-open numeric loop; ``step_sign`` is +1/-1 when the step is a
    compile-time constant, else 0 (runtime direction check)."""

    _fields = ("symbol", "var_type", "start", "limit", "step", "body")

    def __init__(self, symbol: Symbol, var_type: T.Type, start: TExpr,
                 limit: TExpr, step: Optional[TExpr], body: TBlock,
                 step_sign: int = 1, location=None):
        super().__init__(location)
        self.symbol = symbol
        self.var_type = var_type
        self.start = start
        self.limit = limit
        self.step = step
        self.step_sign = step_sign
        self.body = body


class TDoStat(TStat):
    _fields = ("body",)

    def __init__(self, body: TBlock, location=None):
        super().__init__(location)
        self.body = body


class TReturn(TStat):
    """``expr`` is None for unit returns; multi-returns are a TCtor of the
    function's tuple type."""

    _fields = ("expr",)

    def __init__(self, expr: Optional[TExpr], location=None):
        super().__init__(location)
        self.expr = expr


class TBreak(TStat):
    pass


class TExprStat(TStat):
    _fields = ("expr",)

    def __init__(self, expr: TExpr, location=None):
        super().__init__(location)
        self.expr = expr


class TypedFunction:
    """The typechecked form of one Terra function."""

    def __init__(self, func, param_symbols: list[Symbol],
                 ftype: T.FunctionType, body: TBlock):
        self.func = func
        self.param_symbols = param_symbols
        self.type = ftype
        self.body = body
        #: direct references discovered during typechecking, for linking
        self.referenced_functions: list = []
        self.referenced_globals: list = []
        self.referenced_callbacks: list = []
        self.string_constants: list[str] = []
        #: ``body`` is read-only once typechecked (the schedule pass, which
        #: runs before any level exists, is its one other writer).  Pipeline
        #: levels are per-level trees derived from it, built once each under
        #: the lock: see :func:`repro.passes.pipelined_body`.
        self._pipeline_lock = threading.Lock()
        self._pipeline_bodies: dict[int, TBlock] = {}

    @property
    def name(self) -> str:
        return self.func.name


def walk(node):
    """Yield every TNode in a typed tree (pre-order)."""
    stack = [node]
    while stack:
        children = node = stack.pop()
        if isinstance(node, TNode):
            yield node
            children = [getattr(node, field) for field in node._fields]
        # reversed, so children pop — and are yielded — in field order
        stack.extend([child for child in reversed(children)
                      if isinstance(child, _CONTAINERS)])


def clone(node):
    """Structurally clone a typed (sub)tree.

    TNodes are duplicated; symbols, types, globals, functions, and source
    locations are shared by reference, so identity-based facts (interned
    types, symbol scoping) survive the copy.  The pass pipeline runs every
    level over a clone, so the typechecked tree is never written.
    """
    if isinstance(node, TNode):
        new = object.__new__(type(node))
        fresh = new.__dict__
        # the whole dict, not ``_fields``: pass tags (``_sched_origin``) too
        for key, value in node.__dict__.items():
            fresh[key] = clone(value) if isinstance(value, _CONTAINERS) \
                else value
        return new
    if isinstance(node, list):
        return [clone(item) if isinstance(item, _CONTAINERS) else item
                for item in node]
    if isinstance(node, tuple):
        return tuple([clone(item) for item in node])
    return node


_CONTAINERS = (TNode, list, tuple)
