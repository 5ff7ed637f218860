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
import marshal
from typing import NamedTuple, Optional, Sequence

from ..errors import SourceLocation, TypeCheckError
from . import types as T
from .symbols import Symbol


class SNode:
    """Every node class declares its fields once, as ``__slots__``: they
    are its ``_fields``, and an undeclared attribute cannot be written."""

    __slots__ = ("location",)
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        cls._fields = cls.__dict__.get("__slots__", ())

    def __init__(self, location: Optional[SourceLocation] = None):
        self.location = location

    def __repr__(self) -> str:
        parts = ", ".join(f"{f}={getattr(self, f, None)!r}" for f in self._fields)
        return f"{type(self).__name__}({parts})"


# -- expressions -------------------------------------------------------------

class SExpr(SNode):
    __slots__ = ()


class SConst(SExpr):
    """A literal / embedded meta-language constant.  ``type`` may be None
    (e.g. a bare Lua/Python int) and is then defaulted by the typechecker."""

    __slots__ = ("value", "type")

    def __init__(self, value, type: Optional[T.Type] = None,  # noqa: A002
                 location=None):
        self.location = location
        self.value = value
        self.type = type


class SString(SExpr):
    """A string constant (becomes ``rawstring`` pointing at static data)."""

    __slots__ = ("value",)

    def __init__(self, value: str, location=None):
        self.location = location
        self.value = value


class SNull(SExpr):
    """``nil`` — the null pointer; adopts any pointer type from context."""

    __slots__ = ()


class SVar(SExpr):
    __slots__ = ("symbol",)

    def __init__(self, symbol: Symbol, location=None):
        self.location = location
        self.symbol = symbol


class SGlobal(SExpr):
    """A reference to a Terra global variable."""

    __slots__ = ("glob",)

    def __init__(self, glob, location=None):
        self.location = location
        self.glob = glob


class SFuncRef(SExpr):
    """A direct reference to a Terra function (the paper's ``l``)."""

    __slots__ = ("func",)

    def __init__(self, func, location=None):
        self.location = location
        self.func = func


class STypeRef(SExpr):
    """A Terra type in expression position — only legal as a call target
    (cast) or constructor prefix; anything else is a type error."""

    __slots__ = ("type",)

    def __init__(self, type: T.Type, location=None):  # noqa: A002
        self.location = location
        self.type = type


class SCast(SExpr):
    """``[&int8](e)`` / ``T(e)`` — an explicit conversion."""

    __slots__ = ("type", "expr")

    def __init__(self, type: T.Type, expr: SExpr, location=None):  # noqa: A002
        self.location = location
        self.type = type
        self.expr = expr


class SApply(SExpr):
    __slots__ = ("fn", "args")

    def __init__(self, fn: SExpr, args: Sequence[SExpr], location=None):
        self.location = location
        self.fn = fn
        self.args = list(args)


class SMethodCall(SExpr):
    """``obj:m(args)`` — resolved against the static type of ``obj`` during
    typechecking (paper §4.1: desugars to ``[T.methods.m](obj, args)``)."""

    __slots__ = ("obj", "name", "args")

    def __init__(self, obj: SExpr, name: str, args: Sequence[SExpr], location=None):
        self.location = location
        self.obj = obj
        self.name = name
        self.args = list(args)


class SSelect(SExpr):
    """Struct field access (meta-namespace selects are already resolved)."""

    __slots__ = ("obj", "field")

    def __init__(self, obj: SExpr, field: str, location=None):
        self.location = location
        self.obj = obj
        self.field = field


class SIndex(SExpr):
    __slots__ = ("obj", "index")

    def __init__(self, obj: SExpr, index: SExpr, location=None):
        self.location = location
        self.obj = obj
        self.index = index


class SUnOp(SExpr):
    __slots__ = ("op", "operand")

    def __init__(self, op: str, operand: SExpr, location=None):
        self.location = location
        self.op = op
        self.operand = operand


class SBinOp(SExpr):
    __slots__ = ("op", "lhs", "rhs")

    def __init__(self, op: str, lhs: SExpr, rhs: SExpr, location=None):
        self.location = location
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

    __slots__ = ("type", "fields")

    def __init__(self, type: Optional[T.Type],  # noqa: A002
                 fields: Sequence[SCtorField], location=None):
        self.location = location
        self.type = type
        self.fields = list(fields)


class SLetIn(SExpr):
    """A statements-quote with an ``in`` clause spliced into expression
    position: run the block, yield the expression(s)."""

    __slots__ = ("block", "exprs")

    def __init__(self, block: "SBlock", exprs: Sequence[SExpr], location=None):
        self.location = location
        self.block = block
        self.exprs = list(exprs)


class SIntrinsic(SExpr):
    """A backend intrinsic (prefetch, fence...).  ``name`` selects the
    lowering; args are ordinary expressions."""

    __slots__ = ("name", "args")

    def __init__(self, name: str, args: Sequence[SExpr], location=None):
        self.location = location
        self.name = name
        self.args = list(args)


class SPyCallback(SExpr):
    """A Python function embedded with an explicit Terra function type
    (the FFI's ``terralib.cast(fntype, luafn)`` analog)."""

    __slots__ = ("callback",)

    def __init__(self, callback, location=None):
        self.location = location
        self.callback = callback


# -- statements ----------------------------------------------------------------

class SStat(SNode):
    __slots__ = ()


class SBlock(SNode):
    __slots__ = ("statements",)

    def __init__(self, statements: Sequence[SStat], location=None):
        self.location = location
        self.statements = list(statements)


class SVarDecl(SStat):
    """``var s1 : t1, s2 : t2 = e1, e2`` — symbols are already unique."""

    __slots__ = ("symbols", "types", "inits")

    def __init__(self, symbols: Sequence[Symbol],
                 types: Sequence[Optional[T.Type]],
                 inits: Optional[Sequence[SExpr]], location=None):
        self.location = location
        self.symbols = list(symbols)
        self.types = list(types)
        self.inits = list(inits) if inits is not None else None


class SAssign(SStat):
    __slots__ = ("lhs", "rhs")

    def __init__(self, lhs: Sequence[SExpr], rhs: Sequence[SExpr], location=None):
        self.location = location
        self.lhs = list(lhs)
        self.rhs = list(rhs)


class SIf(SStat):
    __slots__ = ("branches", "orelse")

    def __init__(self, branches: Sequence[tuple[SExpr, SBlock]],
                 orelse: Optional[SBlock], location=None):
        self.location = location
        self.branches = list(branches)
        self.orelse = orelse


class SWhile(SStat):
    __slots__ = ("cond", "body")

    def __init__(self, cond: SExpr, body: SBlock, location=None):
        self.location = location
        self.cond = cond
        self.body = body


class SRepeat(SStat):
    __slots__ = ("body", "cond")

    def __init__(self, body: SBlock, cond: SExpr, location=None):
        self.location = location
        self.body = body
        self.cond = cond


class SForNum(SStat):
    """Half-open numeric for over ``[start, limit)`` with optional step."""

    __slots__ = ("symbol", "start", "limit", "step", "body")

    def __init__(self, symbol: Symbol, start: SExpr, limit: SExpr,
                 step: Optional[SExpr], body: SBlock, location=None):
        self.location = location
        self.symbol = symbol
        self.start = start
        self.limit = limit
        self.step = step
        self.body = body


class SDoStat(SStat):
    """``do ... end`` — a nested scope."""

    __slots__ = ("body",)

    def __init__(self, body: SBlock, location=None):
        self.location = location
        self.body = body


class SReturn(SStat):
    __slots__ = ("exprs",)

    def __init__(self, exprs: Sequence[SExpr], location=None):
        self.location = location
        self.exprs = list(exprs)


class SBreak(SStat):
    __slots__ = ()


class SExprStat(SStat):
    __slots__ = ("expr",)

    def __init__(self, expr: SExpr, location=None):
        self.location = location
        self.expr = expr


class SDefer(SStat):
    __slots__ = ("call",)

    def __init__(self, call: SExpr, location=None):
        self.location = location
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
    what makes typechecking it depend on state outside the tree.

    The walk itself is one walker per node class, built at import from
    :data:`_SHAPES`: a field's letter is a ``(table, step)`` pair, and a
    value runs the walker ``table`` holds for its class, else ``step`` —
    which checks and spells a leaf or a list, or reports a node out of
    place."""

    def __init__(self):
        self.out: list = []
        self.symbols: dict = {}
        self.refs: dict = {}
        self.why: Optional[str] = None

    def visit(self, value, kind: str, n=None, field: str = "") -> None:
        table, step = _KINDS[kind]
        (table.get(type(value)) or step)(self, value, n, field)


# -- the steps: ``step(walk, value, parent node, field name)`` ----------------

def _type(w, value, n, field):
    if not isinstance(value, T.Type):
        _broken(n, f"{field} {value!r} is not a Terra type")
    token = type_token(value)
    w.out.append(token)
    if token is None:
        w.why = w.why or "struct"


def _binder(w, value, n, field):
    if not isinstance(value, Symbol):
        _broken(n, f"{field} {value!r} is not a Symbol")
    symbols = w.symbols
    index = symbols.setdefault(value, len(symbols))
    w.out.append(index)
    if index == len(symbols) - 1:       # first occurrence
        name = value.displayname
        w.out.append(name if name is None else str(name))
        _KINDS["T"][1](w, value.type, n, field)


def _atom(w, value, n, field):
    if not isinstance(value, str):
        _broken(n, f"{field} {value!r} is not resolved to a string")
    w.out.append(value if type(value) is str else str(value))


def _constant(w, value, n, field):
    plain = (bool, int, float, str)
    if type(value) in plain or isinstance(value, (list, tuple)) and all(
            type(v) in plain for v in value):
        w.out.append(value)
    else:
        w.why = w.why or "constant"


def _callee(w, value, n, field):
    w.out.append(w.refs.setdefault(value, len(w.refs)))


def _foreign(w, value, n, field):   # SGlobal -> "global", SPyCallback -> ...
    w.why = w.why or type(n).__name__[1:].lower()


def _branch(w, value, n, field):
    w.visit(value[0], "e")
    w.visit(value[1], "b")


def _ctor_field(w, value, n, field):
    if value.name is not None and n.type is None:
        w.why = w.why or "struct"       # a fresh nominal struct
    w.out.append(value.name)
    w.visit(value.value, "e")


def _position(base):
    """``(walkers of the classes that may stand here, report the rest)``."""
    what = base.__name__[1:].lower()

    def misplaced(w, value, n, field):
        _broken(value, f"{what} position holds {type(value).__name__} "
                f"(unresolved meta value or untyped-AST leak?)")
    return {}, misplaced


def _optional(kind):
    table, step = kind

    def maybe(w, value, n, field):
        if value is None:
            w.out.append(None)
        else:
            step(w, value, n, field)
    return table, maybe


def _list(kind):
    table, step = kind

    def each(w, value, n, field):
        w.out.append(len(value))
        for item in value:
            (table.get(type(item)) or step)(w, item, n, field)
    return {}, each


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
_POSITIONS = {SExpr: "e", SBlock: "b", SStat: "s"}
_KINDS = {kind: _position(base) for base, kind in _POSITIONS.items()}
_KINDS.update({kind: ({}, step) for kind, step in zip("tyacfxpk", (
    _type, _binder, _atom, _constant, _callee, _foreign, _branch,
    _ctor_field))})
_KINDS.update({optional: _optional(_KINDS[kind])
               for optional, kind in zip("oBT", "ebt")})
_KINDS.update({many: _list(_KINDS[kind]) for many, kind in zip("ESYUIF",
                                                               "esyTpk")})
_KINDS["O"] = _optional(_list(_KINDS["e"]))
_RULES = {      # what a node's shape alone does not say
    SVarDecl: (lambda n: len(n.symbols) == len(n.types),
               "symbols/types must pair 1:1"),
    SAssign: (lambda n: n.lhs and n.rhs, "needs at least one lhs and one rhs"),
    SIf: (lambda n: n.branches, "needs at least one branch"),
}


def _walker(cls, shape: str):
    """``cls``'s walker, written out a line per field of its shape, as
    ``dataclasses`` writes an ``__init__``: no loop, no interpretation."""
    scope, code = {"_broken": _broken}, ["def walk(w, n, parent, at):"]
    if cls in _RULES:
        scope["rule"], scope["message"] = _RULES[cls]
        code.append("    if not rule(n): _broken(n, message)")
    code.append(f"    w.out.append({cls.__name__!r})")
    for i, (kind, field) in enumerate(zip(shape, cls._fields, strict=True)):
        scope[f"table{i}"], scope[f"step{i}"] = _KINDS[kind]
        step = f"(table{i}.get(type(v)) or step{i})" if kind in "ebsoB" \
            else f"step{i}"
        code += [f"    v = n.{field}", f"    {step}(w, v, n, {field!r})"]
    exec("\n".join(code), scope)      # noqa: S102
    return scope["walk"]


for _cls, _shape in _SHAPES.items():
    _KINDS[next(kind for base, kind in _POSITIONS.items()
                if issubclass(_cls, base))][0][_cls] = _walker(_cls, _shape)


def validate_definition(param_symbols, param_types, rettype,
                        body) -> Fingerprint:
    """Check a definition against the frontend↔IR contract
    (docs/FRONTENDS.md) and return its :class:`Fingerprint`: parameters
    are fresh :class:`Symbol` objects (hygiene: no duplicates) paired 1:1
    with concrete Types; ``rettype`` is a Type or None (= infer); the body
    is an :class:`SBlock` of fully specialized statements — every leaf an
    ``S*`` node, every binder a Symbol, every annotation a Type.

    The digest hashes the tokens' ``marshal`` version 0, which writes each
    value in full (no reference, no interning): equal tokens, equal bytes."""
    walk = _Walk()
    if len(param_symbols) != len(param_types):
        _broken(None, f"parameter symbols ({len(param_symbols)}) and types "
                f"({len(param_types)}) must pair 1:1")
    for sym, ty in zip(param_symbols, param_types):
        if sym in walk.symbols:
            _broken(None, f"parameter symbol {sym!r} appears twice (hygiene "
                    f"requires fresh symbols per binder)")
        walk.visit(sym, "y", field="parameter")
        walk.visit(ty, "t", field=f"annotation of parameter {sym!r}")
    walk.visit(rettype, "T", field="return annotation")
    walk.visit(body, "b")
    return Fingerprint(hashlib.sha256(marshal.dumps(walk.out, 0)).digest(),
                       walk.why, tuple(walk.symbols), tuple(walk.refs))
