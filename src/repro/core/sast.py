"""Specialized Terra trees — the paper's ``ē`` terms.

Produced by eager specialization (:mod:`repro.core.specialize`), consumed
by the lazy typechecker.  In a specialized tree:

* every variable is a resolved :class:`~repro.core.symbols.Symbol`,
* every escape has been evaluated and its result embedded,
* every meta-namespace lookup (``std.malloc``) has been resolved,
* Lua/Python values have become constants, function references, global
  references, types (for casts) or spliced quotations.

Specialized trees are still untyped: types appear on ``SCast``/``SVarDecl``
annotations only where the programmer wrote them; the typechecker computes
the rest when the function is first called (paper §4.1, lazy typechecking).

**Specialized trees are read-only after construction** (as
:mod:`repro.core.ast` trees are).  The typechecker builds ``tast`` nodes
and annotates nothing in place, so a quote's tree is *shared* by every
splice of it (:class:`~repro.core.quotes.Quote` copies nothing) and a
definition's :class:`Fingerprint`, taken once in ``define()``, stays true.
Whoever needs a variant builds new nodes and never assigns to a node's
attribute or mutates one of its lists (``tests/core/test_sast.py``
snapshots every quote and body of a corpus, typechecks, runs and emits,
and compares).
"""

from __future__ import annotations

import functools
import hashlib
from typing import NamedTuple, Optional, Sequence

from ..errors import SourceLocation, TypeCheckError
from . import types as T
from .symbols import Symbol


class SNode:
    _fields: tuple[str, ...] = ()

    def __init__(self, location: Optional[SourceLocation] = None):
        self.location = location

    def __repr__(self) -> str:
        parts = ", ".join(f"{f}={getattr(self, f, None)!r}" for f in self._fields)
        return f"{type(self).__name__}({parts})"


# -- expressions -------------------------------------------------------------

class SExpr(SNode):
    pass


class SConst(SExpr):
    """A literal / embedded meta-language constant.  ``type`` may be None
    (e.g. a bare Lua/Python int) and is then defaulted by the typechecker."""

    _fields = ("value", "type")

    def __init__(self, value, type: Optional[T.Type] = None,  # noqa: A002
                 location=None):
        super().__init__(location)
        self.value = value
        self.type = type


class SString(SExpr):
    """A string constant (becomes ``rawstring`` pointing at static data)."""

    _fields = ("value",)

    def __init__(self, value: str, location=None):
        super().__init__(location)
        self.value = value


class SNull(SExpr):
    """``nil`` — the null pointer; adopts any pointer type from context."""


class SVar(SExpr):
    _fields = ("symbol",)

    def __init__(self, symbol: Symbol, location=None):
        super().__init__(location)
        self.symbol = symbol


class SGlobal(SExpr):
    """A reference to a Terra global variable."""

    _fields = ("glob",)

    def __init__(self, glob, location=None):
        super().__init__(location)
        self.glob = glob


class SFuncRef(SExpr):
    """A direct reference to a Terra function (the paper's ``l``)."""

    _fields = ("func",)

    def __init__(self, func, location=None):
        super().__init__(location)
        self.func = func


class STypeRef(SExpr):
    """A Terra type in expression position — only legal as a call target
    (cast) or constructor prefix; anything else is a type error."""

    _fields = ("type",)

    def __init__(self, type: T.Type, location=None):  # noqa: A002
        super().__init__(location)
        self.type = type


class SCast(SExpr):
    """``[&int8](e)`` / ``T(e)`` — an explicit conversion."""

    _fields = ("type", "expr")

    def __init__(self, type: T.Type, expr: SExpr, location=None):  # noqa: A002
        super().__init__(location)
        self.type = type
        self.expr = expr


class SApply(SExpr):
    _fields = ("fn", "args")

    def __init__(self, fn: SExpr, args: Sequence[SExpr], location=None):
        super().__init__(location)
        self.fn = fn
        self.args = list(args)


class SMethodCall(SExpr):
    """``obj:m(args)`` — resolved against the static type of ``obj`` during
    typechecking (paper §4.1: desugars to ``[T.methods.m](obj, args)``)."""

    _fields = ("obj", "name", "args")

    def __init__(self, obj: SExpr, name: str, args: Sequence[SExpr], location=None):
        super().__init__(location)
        self.obj = obj
        self.name = name
        self.args = list(args)


class SSelect(SExpr):
    """Struct field access (meta-namespace selects are already resolved)."""

    _fields = ("obj", "field")

    def __init__(self, obj: SExpr, field: str, location=None):
        super().__init__(location)
        self.obj = obj
        self.field = field


class SIndex(SExpr):
    _fields = ("obj", "index")

    def __init__(self, obj: SExpr, index: SExpr, location=None):
        super().__init__(location)
        self.obj = obj
        self.index = index


class SUnOp(SExpr):
    _fields = ("op", "operand")

    def __init__(self, op: str, operand: SExpr, location=None):
        super().__init__(location)
        self.op = op
        self.operand = operand


class SBinOp(SExpr):
    _fields = ("op", "lhs", "rhs")

    def __init__(self, op: str, lhs: SExpr, rhs: SExpr, location=None):
        super().__init__(location)
        self.op = op
        self.lhs = lhs
        self.rhs = rhs


class SCtorField:
    __slots__ = ("name", "value")

    def __init__(self, name: Optional[str], value: SExpr):
        self.name = name
        self.value = value

    def __repr__(self) -> str:
        return f"SCtorField({self.name!r}, {self.value!r})"


class SCtor(SExpr):
    """Struct construction ``T { ... }`` / anonymous ``{ ... }``."""

    _fields = ("type", "fields")

    def __init__(self, type: Optional[T.Type],  # noqa: A002
                 fields: Sequence[SCtorField], location=None):
        super().__init__(location)
        self.type = type
        self.fields = list(fields)


class SLetIn(SExpr):
    """A statements-quote with an ``in`` clause spliced into expression
    position: run the block, yield the expression(s)."""

    _fields = ("block", "exprs")

    def __init__(self, block: "SBlock", exprs: Sequence[SExpr], location=None):
        super().__init__(location)
        self.block = block
        self.exprs = list(exprs)


class SIntrinsic(SExpr):
    """A backend intrinsic (prefetch, fence...).  ``name`` selects the
    lowering; args are ordinary expressions."""

    _fields = ("name", "args")

    def __init__(self, name: str, args: Sequence[SExpr], location=None):
        super().__init__(location)
        self.name = name
        self.args = list(args)


class SPyCallback(SExpr):
    """A Python function embedded with an explicit Terra function type
    (the FFI's ``terralib.cast(fntype, luafn)`` analog)."""

    _fields = ("callback",)

    def __init__(self, callback, location=None):
        super().__init__(location)
        self.callback = callback


# -- statements ----------------------------------------------------------------

class SStat(SNode):
    pass


class SBlock(SNode):
    _fields = ("statements",)

    def __init__(self, statements: Sequence[SStat], location=None):
        super().__init__(location)
        self.statements = list(statements)


class SVarDecl(SStat):
    """``var s1 : t1, s2 : t2 = e1, e2`` — symbols are already unique."""

    _fields = ("symbols", "types", "inits")

    def __init__(self, symbols: Sequence[Symbol],
                 types: Sequence[Optional[T.Type]],
                 inits: Optional[Sequence[SExpr]], location=None):
        super().__init__(location)
        self.symbols = list(symbols)
        self.types = list(types)
        self.inits = list(inits) if inits is not None else None


class SAssign(SStat):
    _fields = ("lhs", "rhs")

    def __init__(self, lhs: Sequence[SExpr], rhs: Sequence[SExpr], location=None):
        super().__init__(location)
        self.lhs = list(lhs)
        self.rhs = list(rhs)


class SIf(SStat):
    _fields = ("branches", "orelse")

    def __init__(self, branches: Sequence[tuple[SExpr, SBlock]],
                 orelse: Optional[SBlock], location=None):
        super().__init__(location)
        self.branches = list(branches)
        self.orelse = orelse


class SWhile(SStat):
    _fields = ("cond", "body")

    def __init__(self, cond: SExpr, body: SBlock, location=None):
        super().__init__(location)
        self.cond = cond
        self.body = body


class SRepeat(SStat):
    _fields = ("body", "cond")

    def __init__(self, body: SBlock, cond: SExpr, location=None):
        super().__init__(location)
        self.body = body
        self.cond = cond


class SForNum(SStat):
    """Half-open numeric for over ``[start, limit)`` with optional step."""

    _fields = ("symbol", "start", "limit", "step", "body")

    def __init__(self, symbol: Symbol, start: SExpr, limit: SExpr,
                 step: Optional[SExpr], body: SBlock, location=None):
        super().__init__(location)
        self.symbol = symbol
        self.start = start
        self.limit = limit
        self.step = step
        self.body = body


class SDoStat(SStat):
    """``do ... end`` — a nested scope."""

    _fields = ("body",)

    def __init__(self, body: SBlock, location=None):
        super().__init__(location)
        self.body = body


class SReturn(SStat):
    _fields = ("exprs",)

    def __init__(self, exprs: Sequence[SExpr], location=None):
        super().__init__(location)
        self.exprs = list(exprs)


class SBreak(SStat):
    pass


class SExprStat(SStat):
    _fields = ("expr",)

    def __init__(self, expr: SExpr, location=None):
        super().__init__(location)
        self.expr = expr


class SDefer(SStat):
    _fields = ("call",)

    def __init__(self, call: SExpr, location=None):
        super().__init__(location)
        self.call = call


# -- the frontend contract and the structural fingerprint ---------------------
#
# Every frontend (the string parser, the @terra decorator) hands
# TerraFunction.define a specialized definition.  One walk
# checks the structural invariants the typechecker, passes and backends
# silently assume (docs/FRONTENDS.md; a violation is a frontend bug, never
# a user error) and hashes what it saw into the definition's Fingerprint,
# which the linker's structural memo is keyed by (docs/INTERNALS.md).

def _broken(node, message: str):
    from ..errors import FrontendContractError
    where = f"{type(node).__name__} " if isinstance(node, SNode) else ""
    raise FrontendContractError(where + message,
                                getattr(node, "location", None))


class Fingerprint(NamedTuple):
    digest: bytes           # hash of the alpha-normalized definition
    why: Optional[str]      # why no memo may stand in for typechecking it
    symbols: tuple          # its Symbols, in first-occurrence order
    refs: tuple             # the functions it references, likewise


#: one letter per entry of ``_fields``: e expression, b block, s statement,
#: t type, y binder Symbol; o/B/T the optional e/b/t; E/S/Y/U a list of
#: e/s/y/T, O of e or None, I of p (condition, block) pairs, F of k
#: ``SCtorField``s; a atom (operator, field or method name), c constant
#: value, f function, x a reference into this process (global, callback)
_SHAPES = {
    SConst: "cT", SString: "a", SNull: "", SVar: "y", SGlobal: "x",
    SFuncRef: "f", STypeRef: "t", SCast: "te", SApply: "eE",
    SMethodCall: "eaE", SSelect: "ea", SIndex: "ee", SUnOp: "ae",
    SBinOp: "aee", SCtor: "TF", SLetIn: "bE", SIntrinsic: "aE",
    SPyCallback: "x", SBlock: "S", SVarDecl: "YUO", SAssign: "EE",
    SIf: "IB", SWhile: "eb", SRepeat: "be", SForNum: "yeeob", SDoStat: "b",
    SReturn: "E", SBreak: "", SExprStat: "e", SDefer: "e",
}
_SHAPES = {cls: tuple(zip(shape, cls._fields)) for cls, shape in _SHAPES.items()}
_ELEMENT = dict(zip("EOSYUIF", "eesyTpk"))
_POSITION = {"e": SExpr, "o": SExpr, "b": SBlock, "B": SBlock, "s": SStat}
_RULES = {      # what a node's shape alone does not say
    SVarDecl: (lambda n: len(n.symbols) == len(n.types),
               "symbols/types must pair 1:1"),
    SAssign: (lambda n: n.lhs and n.rhs, "needs at least one lhs and one rhs"),
    SIf: (lambda n: n.branches, "needs at least one branch"),
}


@functools.lru_cache(maxsize=4096)
def type_token(ty: T.Type) -> Optional[str]:
    """``ty`` spelled structurally (:func:`repro.core.types.encode`), or
    None for a nominal type."""
    try:
        return repr(T.encode(ty))
    except TypeCheckError:
        return None


class _Walk:
    """One pass over a definition: checks the contract and appends to
    ``out`` what identifies the tree up to alpha-renaming — node kinds and
    operators, constants as Python values (``1``/``True``/``1.0`` and
    ``0.0``/``-0.0`` spell differently, NaN like no number), symbols as
    first-occurrence index plus display name and declared type, types
    structurally, callees as first-occurrence index — and notes in ``why``
    what makes typechecking it depend on state outside the tree."""

    def __init__(self):
        self.out: list = []
        self.symbols: dict = {}
        self.refs: dict = {}
        self.why: Optional[str] = None

    def node(self, n, base) -> None:
        cls = type(n)
        if not (isinstance(n, base) and cls in _SHAPES):
            _broken(n, f"{base.__name__[1:].lower()} position holds "
                    f"{cls.__name__} (unresolved meta value or untyped-AST "
                    f"leak?)")
        if cls in _RULES and not _RULES[cls][0](n):
            _broken(n, _RULES[cls][1])
        self.out.append(cls.__name__)
        for kind, field in _SHAPES[cls]:
            if kind == "e":     # half of all fields: spare them the call
                self.node(getattr(n, field), SExpr)
            else:
                self.field(kind, getattr(n, field), n, field)

    def field(self, kind: str, value, n=None, field: str = "") -> None:
        out = self.out
        if kind in _POSITION and value is not None:
            self.node(value, _POSITION[kind])
        elif value is None and kind in "oBTO":
            out.append(None)
        elif kind in _ELEMENT:
            out.append(len(value))
            for item in value:
                self.field(_ELEMENT[kind], item, n, field)
        elif kind in "tT":
            if not isinstance(value, T.Type):
                _broken(n, f"{field} {value!r} is not a Terra type")
            out.append(type_token(value))
            if out[-1] is None:
                self.why = self.why or "struct"
        elif kind == "y":
            if not isinstance(value, Symbol):
                _broken(n, f"{field} {value!r} is not a Symbol")
            index = self.symbols.setdefault(value, len(self.symbols))
            out.append(index)
            if index == len(self.symbols) - 1:      # first occurrence
                out.append(value.displayname)
                self.field("T", value.type, n, field)
        elif kind == "a":
            if not isinstance(value, str):
                _broken(n, f"{field} {value!r} is not resolved to a string")
            out.append(value)
        elif kind == "c":
            flat = value if isinstance(value, (list, tuple)) else (value,)
            if all(type(v) in (bool, int, float, str) for v in flat):
                out.append(value)
            else:
                self.why = self.why or "constant"
        elif kind == "f":
            out.append(self.refs.setdefault(value, len(self.refs)))
        elif kind == "x":           # SGlobal -> "global", SPyCallback -> ...
            self.why = self.why or type(n).__name__[1:].lower()
        elif kind == "p":
            self.node(value[0], SExpr)
            self.node(value[1], SBlock)
        elif kind == "k":
            if value.name is not None and n.type is None:
                self.why = self.why or "struct"   # a fresh nominal struct
            out.append(value.name)
            self.node(value.value, SExpr)


def validate_definition(param_symbols, param_types, rettype,
                        body) -> Fingerprint:
    """Check a definition against the frontend↔IR contract
    (docs/FRONTENDS.md) and return its :class:`Fingerprint`: parameters
    are fresh :class:`Symbol` objects (hygiene: no duplicates) paired 1:1
    with concrete Types; ``rettype`` is a Type or None (= infer); the body
    is an :class:`SBlock` of fully specialized statements — every leaf an
    ``S*`` node, every binder a Symbol, every annotation a Type."""
    walk = _Walk()
    if len(param_symbols) != len(param_types):
        _broken(None, f"parameter symbols ({len(param_symbols)}) and types "
                f"({len(param_types)}) must pair 1:1")
    for sym, ty in zip(param_symbols, param_types):
        if sym in walk.symbols:
            _broken(None, f"parameter symbol {sym!r} appears twice (hygiene "
                    f"requires fresh symbols per binder)")
        walk.field("y", sym, field="parameter")
        walk.field("t", ty, field=f"annotation of parameter {sym!r}")
    walk.field("T", rettype, field="return annotation")
    walk.node(body, SBlock)
    return Fingerprint(hashlib.sha256(repr(walk.out).encode()).digest(),
                       walk.why, tuple(walk.symbols), tuple(walk.refs))
