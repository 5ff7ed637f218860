"""Untyped Terra AST — the parser's output, the specializer's input.

These trees may still contain :class:`Escape` nodes (meta-language code to
run during specialization) and unresolved :class:`Name` nodes.  Eager
specialization (:mod:`repro.core.specialize`) turns them into *specialized*
trees in which every name is resolved to a symbol, constant, function
reference or spliced quotation — the paper's ``ē`` terms.

**Trees are read-only once built** — no assigning to a node, no mutating
its lists: every evaluation of the same source text shares one
(:func:`repro.core.parser.parsed`).  What derives from an escape's *text*
(code object, ``&`` count) is therefore computed here, once.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..errors import SourceLocation


class _Code:
    """Meta-language code, compiled when the tree is built.  Only its
    evaluation can tell bad Python from a Terra type (``[&vector(float,4)]``),
    so a failure is kept: :meth:`code_object` raises a copy, every time."""

    def _compile(self, code: str, filename: str, mode: str) -> None:
        try:
            self._compiled = compile(code, filename, mode)
        except (SyntaxError, ValueError) as exc:
            # args only: the traceback would pin the parser's frames
            self._compiled = (type(exc), exc.args)

    def code_object(self):
        if isinstance(self._compiled, tuple):
            raise self._compiled[0](*self._compiled[1])
        return self._compiled


class Node:
    """Base AST node; every node records its source location."""

    _fields: tuple[str, ...] = ()

    def __init__(self, location: Optional[SourceLocation] = None):
        self.location = location

    def __repr__(self) -> str:
        parts = ", ".join(f"{f}={getattr(self, f, None)!r}" for f in self._fields)
        return f"{type(self).__name__}({parts})"


# ---------------------------------------------------------------------------
# expressions
# ---------------------------------------------------------------------------

class Expr(Node):
    pass


class Number(Expr):
    """A numeric literal; carries the lexer's suffix info so the
    typechecker can give it the right Terra type (int, double, float...)."""

    _fields = ("value", "is_float", "suffix")

    def __init__(self, value, is_float: bool, suffix: str, location=None):
        super().__init__(location)
        self.value = value
        self.is_float = is_float
        self.suffix = suffix


class String(Expr):
    _fields = ("value",)

    def __init__(self, value: str, location=None):
        super().__init__(location)
        self.value = value


class Bool(Expr):
    _fields = ("value",)

    def __init__(self, value: bool, location=None):
        super().__init__(location)
        self.value = value


class Nil(Expr):
    """``nil`` — the null pointer constant."""


class Name(Expr):
    _fields = ("name",)

    def __init__(self, name: str, location=None):
        super().__init__(location)
        self.name = name


class Escape(Expr, _Code):
    """``[ python-code ]`` — evaluated in the shared lexical environment
    during specialization; the result is spliced into the Terra tree.
    The ``&`` of ``[&PixelType]`` (paper §2) is not Python: leading ``&``s
    are counted off (``npointer``), the rest is the expression."""

    _fields = ("code",)

    def __init__(self, code: str, location=None):
        super().__init__(location)
        self.code = code
        python = code.lstrip("& \t\r\n")
        self.npointer = code[:len(code) - len(python)].count("&")
        self._compile(python, "<string>", "eval")


class Select(Expr):
    """``a.b`` — struct field access *or* meta-namespace lookup; which one
    is decided during specialization (paper: nested Lua-table sugar)."""

    _fields = ("obj", "field")

    def __init__(self, obj: Expr, field: str, location=None):
        super().__init__(location)
        self.obj = obj
        self.field = field


class Index(Expr):
    """``a[i]`` — pointer/array/vector indexing."""

    _fields = ("obj", "index")

    def __init__(self, obj: Expr, index: Expr, location=None):
        super().__init__(location)
        self.obj = obj
        self.index = index


class Apply(Expr):
    """``f(a, b)`` — call; becomes a cast if ``f`` specializes to a type."""

    _fields = ("fn", "args")

    def __init__(self, fn: Expr, args: Sequence[Expr], location=None):
        super().__init__(location)
        self.fn = fn
        self.args = list(args)


class MethodCall(Expr):
    """``obj:m(a)`` — sugar for ``[T.methods.m](&obj, a)`` (paper §4.1)."""

    _fields = ("obj", "name", "args")

    def __init__(self, obj: Expr, name: str, args: Sequence[Expr], location=None):
        super().__init__(location)
        self.obj = obj
        self.name = name
        self.args = list(args)


class UnOp(Expr):
    """Unary operators: ``-``, ``not``, ``&`` (address-of), ``@`` (deref)."""

    _fields = ("op", "operand")

    def __init__(self, op: str, operand: Expr, location=None):
        super().__init__(location)
        self.op = op
        self.operand = operand


class BinOp(Expr):
    _fields = ("op", "lhs", "rhs")

    def __init__(self, op: str, lhs: Expr, rhs: Expr, location=None):
        super().__init__(location)
        self.op = op
        self.lhs = lhs
        self.rhs = rhs


class CtorField:
    """One initializer in a struct constructor: positional or named."""

    __slots__ = ("name", "value")

    def __init__(self, name: Optional[str], value: Expr):
        self.name = name
        self.value = value

    def __repr__(self) -> str:
        return f"CtorField({self.name!r}, {self.value!r})"


class Constructor(Expr):
    """``T { ... }`` (typed) or ``{ a = 1, 2 }`` (anonymous struct)."""

    _fields = ("type_expr", "fields")

    def __init__(self, type_expr: Optional[Expr], fields: Sequence[CtorField],
                 location=None):
        super().__init__(location)
        self.type_expr = type_expr
        self.fields = list(fields)


class FunctionTypeExpr(Expr):
    """``{T1, T2} -> R`` appearing in type position."""

    _fields = ("parameters", "returns")

    def __init__(self, parameters: Sequence[Expr], returns: Sequence[Expr],
                 location=None):
        super().__init__(location)
        self.parameters = list(parameters)
        self.returns = list(returns)


class TupleTypeExpr(Expr):
    """``{T1, T2}`` in type position; ``{}`` is the unit type."""

    _fields = ("elements",)

    def __init__(self, elements: Sequence[Expr], location=None):
        super().__init__(location)
        self.elements = list(elements)


class TreeRef(Expr):
    """A pre-specialized tree spliced in by the specializer (never produced
    by the parser).  Wraps specialized nodes when a quote is inserted."""

    _fields = ("tree",)

    def __init__(self, tree, location=None):
        super().__init__(location)
        self.tree = tree


# ---------------------------------------------------------------------------
# statements
# ---------------------------------------------------------------------------

class Stat(Node):
    pass


class Block(Node):
    _fields = ("statements",)

    def __init__(self, statements: Sequence[Stat], location=None):
        super().__init__(location)
        self.statements = list(statements)


class VarTarget:
    """One declared variable: a literal name or an escape that must
    evaluate to a symbol (paper Fig. 5: ``var [caddr[m][n]] = ...``)."""

    __slots__ = ("name", "escape", "type_expr")

    def __init__(self, name: Optional[str], escape: Optional[Escape],
                 type_expr: Optional[Expr]):
        self.name = name
        self.escape = escape
        self.type_expr = type_expr

    def __repr__(self) -> str:
        return f"VarTarget({self.name!r}, {self.escape!r}, {self.type_expr!r})"


class VarStat(Stat):
    """``var a : int, b = e1, e2``"""

    _fields = ("targets", "inits")

    def __init__(self, targets: Sequence[VarTarget],
                 inits: Optional[Sequence[Expr]], location=None):
        super().__init__(location)
        self.targets = list(targets)
        self.inits = list(inits) if inits is not None else None


class AssignStat(Stat):
    _fields = ("lhs", "rhs")

    def __init__(self, lhs: Sequence[Expr], rhs: Sequence[Expr], location=None):
        super().__init__(location)
        self.lhs = list(lhs)
        self.rhs = list(rhs)


class IfStat(Stat):
    _fields = ("branches", "orelse")

    def __init__(self, branches: Sequence[tuple[Expr, Block]],
                 orelse: Optional[Block], location=None):
        super().__init__(location)
        self.branches = list(branches)
        self.orelse = orelse


class WhileStat(Stat):
    _fields = ("cond", "body")

    def __init__(self, cond: Expr, body: Block, location=None):
        super().__init__(location)
        self.cond = cond
        self.body = body


class RepeatStat(Stat):
    """``repeat body until cond``"""

    _fields = ("body", "cond")

    def __init__(self, body: Block, cond: Expr, location=None):
        super().__init__(location)
        self.body = body
        self.cond = cond


class ForNum(Stat):
    """``for i = start, limit [, step] do body end``.

    Terra's numeric for iterates over the half-open interval
    ``[start, limit)`` — unlike Lua's inclusive loop.  The paper's examples
    (``for i = 0, newN do``) rely on this.
    """

    _fields = ("target", "start", "limit", "step", "body")

    def __init__(self, target: VarTarget, start: Expr, limit: Expr,
                 step: Optional[Expr], body: Block, location=None):
        super().__init__(location)
        self.target = target
        self.start = start
        self.limit = limit
        self.step = step
        self.body = body


class DoStat(Stat):
    _fields = ("body",)

    def __init__(self, body: Block, location=None):
        super().__init__(location)
        self.body = body


class ReturnStat(Stat):
    _fields = ("exprs",)

    def __init__(self, exprs: Sequence[Expr], location=None):
        super().__init__(location)
        self.exprs = list(exprs)


class BreakStat(Stat):
    pass


class ExprStat(Stat):
    _fields = ("expr",)

    def __init__(self, expr: Expr, location=None):
        super().__init__(location)
        self.expr = expr


class EscapeStat(Stat):
    """A statement-position escape: may splice a quote, a list of quotes,
    or nothing."""

    _fields = ("escape",)

    def __init__(self, escape: Escape):
        super().__init__(escape.location)
        self.escape = escape


class EscapeBlock(Stat, _Code):
    """``escape <python statements> end`` — run a Python block during
    specialization; quotes passed to its ``emit(...)`` are spliced here
    in order (Terra's escape/emit)."""

    _fields = ("code",)

    def __init__(self, code: str, location=None):
        super().__init__(location)
        self.code = code
        self._compile(code, "<escape block>", "exec")


class DeferStat(Stat):
    """``defer f(args)`` — run the call when the scope exits."""

    _fields = ("call",)

    def __init__(self, call: Expr, location=None):
        super().__init__(location)
        self.call = call


# ---------------------------------------------------------------------------
# top-level definitions
# ---------------------------------------------------------------------------

class Param:
    """A formal parameter: a named+typed one, or an escape producing a
    typed symbol (or list of symbols, for ``terra([params])`` splicing)."""

    __slots__ = ("name", "escape", "type_expr", "location")

    def __init__(self, name: Optional[str], escape: Optional[Escape],
                 type_expr: Optional[Expr], location=None):
        self.name = name
        self.escape = escape
        self.type_expr = type_expr
        self.location = location

    def __repr__(self) -> str:
        return f"Param({self.name!r}, {self.escape!r}, {self.type_expr!r})"


class FunctionDef(Node):
    """``terra name(params) : rettype body end`` — possibly anonymous
    (``terra(params) ...``), possibly a method (``terra T:m(...)``)."""

    _fields = ("namepath", "method_name", "params", "return_type_expr", "body")

    def __init__(self, namepath: Optional[list[str]], method_name: Optional[str],
                 params: Sequence[Param], return_type_expr: Optional[Expr],
                 body: Block, location=None):
        super().__init__(location)
        self.namepath = namepath          # e.g. ["ImageImpl"] or None
        self.method_name = method_name    # for ``terra T:m``
        self.params = list(params)
        self.return_type_expr = return_type_expr
        self.body = body


class StructDef(Node):
    """``struct Name { field : T, ... }``"""

    _fields = ("name", "entries")

    def __init__(self, name: str, entries: Sequence[tuple[str, Expr]],
                 location=None):
        super().__init__(location)
        self.name = name
        self.entries = list(entries)


class QuoteBody(Node):
    """The parse of a ``quote ... [in e1, e2] end`` body."""

    _fields = ("block", "in_exprs")

    def __init__(self, block: Block, in_exprs: Optional[Sequence[Expr]],
                 location=None):
        super().__init__(location)
        self.block = block
        self.in_exprs = list(in_exprs) if in_exprs is not None else None
