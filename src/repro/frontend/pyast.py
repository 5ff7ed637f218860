"""The ``@terra`` decorator frontend — staged Terra in Python syntax.

The paper embeds Terra in Lua; this module embeds the same object
language in *Python* syntax, so a kernel can be written as a decorated,
type-annotated Python function::

    from repro import terra, int32, ptr

    @terra
    def saxpy(y: ptr(float), x: ptr(float), a: float, n: int32) -> None:
        for i in range(n):
            y[i] = a * x[i] + y[i]

The decorated function is **never executed as Python**.  Its source is
re-read through Python's :mod:`ast` module and lowered into the same
untyped Terra AST (:mod:`repro.core.ast`) the string parser produces;
from there it flows through the one shared path: eager specialization
(:class:`repro.core.specialize.Specializer`), lazy typechecking, the
pass pipeline (levels 0–2 including the vectorizer), both backends, and
the tiered dispatcher.  Nothing downstream of ``TerraFunction.define``
knows which frontend produced a function — that boundary is the
frontend↔IR contract documented in ``docs/FRONTENDS.md``.

Staging hooks (the paper's §4.1 escape semantics, verbatim):

* ``{expr}`` — a one-element set literal is an **escape**: the enclosed
  Python expression is evaluated eagerly during specialization in the
  decoration-site lexical environment, and its value (a constant, type,
  symbol, Terra function or :class:`~repro.core.quotes.Quote`) is
  spliced in.  In statement position a list of quotes splices as
  multiple statements, exactly like the string frontend's ``[...]``.
* a free Python name in the body resolves through the same environment
  at specialization time (closed-over constants, other ``@terra``
  functions, intrinsics) — the SVAR rule.

Surface subset (anything else is a :class:`TerraSyntaxError` carrying
the original Python source location): ``if``/``elif``/``else``,
``while``, ``for i in range(...)`` (Terra's half-open numeric loop),
annotated and first-assignment local declarations, pointer/array
indexing, ``addr(x)`` / ``deref(p)`` for ``&x`` / ``@p``, calls to
other Terra functions and intrinsics, ``return`` (including tuples),
``break``, and escapes.
"""

from __future__ import annotations

import ast as pyast
import inspect
import sys
import textwrap
import weakref
from typing import Optional

from .. import config, trace
from ..errors import SourceLocation, TerraError, TerraSyntaxError
from ..core import ast as tast, parser
from ..core.env import Environment
from ..core.function import TerraFunction
from ..core.specialize import Specializer

__all__ = ["define_pyfunc", "addr", "deref"]


def addr(value):  # pragma: no cover - marker, never executed
    """``addr(x)`` inside ``@terra`` code lowers to Terra's ``&x``.

    Importable so editors/linters see a real name; calling it from
    ordinary Python is an error by construction.
    """
    raise TerraError("addr() is @terra staging syntax; it has no meaning "
                     "outside a decorated Terra function")


def deref(pointer):  # pragma: no cover - marker, never executed
    """``deref(p)`` inside ``@terra`` code lowers to Terra's ``@p``."""
    raise TerraError("deref() is @terra staging syntax; it has no meaning "
                     "outside a decorated Terra function")


#: Python operator node -> Terra binary operator spelling
_BINOPS = {
    pyast.Add: "+", pyast.Sub: "-", pyast.Mult: "*",
    pyast.Div: "/", pyast.FloorDiv: "/", pyast.Mod: "%",
    pyast.LShift: "<<", pyast.RShift: ">>",
    pyast.BitOr: "|", pyast.BitXor: "^", pyast.BitAnd: "&",
}

_CMPOPS = {
    pyast.Eq: "==", pyast.NotEq: "~=",
    pyast.Lt: "<", pyast.LtE: "<=", pyast.Gt: ">", pyast.GtE: ">=",
}


def _escape_payload(node: pyast.expr) -> Optional[pyast.expr]:
    """The inner expression when ``node`` is a ``{...}`` escape literal."""
    if isinstance(node, pyast.Set) and len(node.elts) == 1:
        return node.elts[0]
    return None


class _Lowerer:
    """Lowers one Python ``ast.FunctionDef`` to an untyped Terra tree.

    Tracks a stack of lexical block scopes mirroring the specializer's:
    a plain first assignment to an unseen name *declares* a new Terra
    local in the current block (like ``var x = e``); later assignments
    in the same or inner blocks mutate it.
    """

    def __init__(self, filename: str, lines: list[str], line_offset: int):
        self.filename = filename
        self.lines = lines
        self.line_offset = line_offset
        self.scopes: list[set[str]] = [set()]

    # -- bookkeeping --------------------------------------------------------
    def loc(self, node) -> SourceLocation:
        lineno = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0) + 1
        text = self.lines[lineno - 1] if 0 < lineno <= len(self.lines) else None
        return SourceLocation(self.filename, lineno + self.line_offset,
                              col, text)

    def error(self, message: str, node) -> TerraSyntaxError:
        return TerraSyntaxError(message, self.loc(node))

    def declared(self, name: str) -> bool:
        return any(name in scope for scope in self.scopes)

    def declare(self, name: str) -> None:
        self.scopes[-1].add(name)

    # -- entry point --------------------------------------------------------
    def lower_function(self, fdef: pyast.FunctionDef) -> tast.FunctionDef:
        args = fdef.args
        if args.vararg or args.kwarg or args.kwonlyargs or args.defaults \
                or args.kw_defaults:
            raise self.error(
                "@terra functions take only plain positional parameters "
                "(no *args, **kwargs, keyword-only arguments or defaults)",
                fdef)
        params = []
        for arg in args.posonlyargs + args.args:
            if arg.annotation is None:
                raise self.error(
                    f"@terra parameter {arg.arg!r} needs a Terra type "
                    f"annotation (e.g. {arg.arg}: int32)", arg)
            params.append(tast.Param(arg.arg, None,
                                     self.expr(arg.annotation),
                                     self.loc(arg)))
            self.declare(arg.arg)
        rettype = None
        if fdef.returns is not None:
            if isinstance(fdef.returns, pyast.Constant) \
                    and fdef.returns.value is None:
                # ``-> None`` is Terra's unit type ``{}``
                rettype = tast.TupleTypeExpr([], self.loc(fdef.returns))
            else:
                rettype = self.expr(fdef.returns)
        body = self.block(fdef.body, fdef)
        return tast.FunctionDef([fdef.name], None, params, rettype, body,
                                self.loc(fdef))

    # -- statements ---------------------------------------------------------
    def block(self, body: list[pyast.stmt], parent) -> tast.Block:
        self.scopes.append(set())
        try:
            out: list[tast.Stat] = []
            for stmt in body:
                lowered = self.stat(stmt)
                if lowered is not None:
                    out.append(lowered)
            return tast.Block(out, self.loc(parent))
        finally:
            self.scopes.pop()

    def stat(self, node: pyast.stmt) -> Optional[tast.Stat]:
        loc = self.loc(node)
        if isinstance(node, pyast.AnnAssign):
            return self.ann_assign(node)
        if isinstance(node, pyast.Assign):
            return self.assign(node)
        if isinstance(node, pyast.AugAssign):
            return self.aug_assign(node)
        if isinstance(node, pyast.If):
            return self.if_stat(node)
        if isinstance(node, pyast.While):
            if node.orelse:
                raise self.error("while/else has no Terra equivalent", node)
            return tast.WhileStat(self.expr(node.test),
                                  self.block(node.body, node), loc)
        if isinstance(node, pyast.For):
            return self.for_stat(node)
        if isinstance(node, pyast.Return):
            if node.value is None:
                return tast.ReturnStat([], loc)
            if isinstance(node.value, pyast.Tuple):
                return tast.ReturnStat([self.expr(e) for e in node.value.elts],
                                       loc)
            return tast.ReturnStat([self.expr(node.value)], loc)
        if isinstance(node, pyast.Break):
            return tast.BreakStat(loc)
        if isinstance(node, pyast.Continue):
            raise self.error("continue is not part of the Terra subset "
                             "(restructure with if/else)", node)
        if isinstance(node, pyast.Pass):
            return None
        if isinstance(node, pyast.Expr):
            if isinstance(node.value, pyast.Constant) \
                    and isinstance(node.value.value, str):
                return None  # docstring
            payload = _escape_payload(node.value)
            if payload is not None:
                return tast.EscapeStat(tast.Escape(pyast.unparse(payload), loc))
            return tast.ExprStat(self.expr(node.value), loc)
        raise self.error(
            f"{type(node).__name__} is outside the @terra statement subset "
            f"(see docs/FRONTENDS.md for what a frontend may emit)", node)

    def ann_assign(self, node: pyast.AnnAssign) -> tast.Stat:
        if not isinstance(node.target, pyast.Name):
            raise self.error("only simple names can be declared with a type "
                             "annotation", node.target)
        target = tast.VarTarget(node.target.id, None, self.expr(node.annotation))
        inits = [self.expr(node.value)] if node.value is not None else None
        self.declare(node.target.id)
        return tast.VarStat([target], inits, self.loc(node))

    def assign(self, node: pyast.Assign) -> tast.Stat:
        if len(node.targets) != 1:
            raise self.error("chained assignment (a = b = e) is not part of "
                             "the Terra subset", node)
        target = node.targets[0]
        loc = self.loc(node)
        rhs = [self.expr(e) for e in node.value.elts] \
            if isinstance(node.value, pyast.Tuple) \
            else [self.expr(node.value)]
        if isinstance(target, pyast.Name):
            if not self.declared(target.id):
                # first assignment declares, like Terra's ``var x = e``
                self.declare(target.id)
                return tast.VarStat(
                    [tast.VarTarget(target.id, None, None)], rhs, loc)
            return tast.AssignStat([self.expr(target)], rhs, loc)
        if isinstance(target, pyast.Tuple):
            names = [t for t in target.elts if isinstance(t, pyast.Name)]
            if len(names) == len(target.elts) \
                    and not any(self.declared(t.id) for t in names):
                for t in names:
                    self.declare(t.id)
                return tast.VarStat(
                    [tast.VarTarget(t.id, None, None) for t in names],
                    rhs, loc)
            return tast.AssignStat([self.expr(t) for t in target.elts],
                                   rhs, loc)
        if isinstance(target, (pyast.Subscript, pyast.Attribute)):
            return tast.AssignStat([self.expr(target)], rhs, loc)
        raise self.error(
            f"cannot assign to {type(target).__name__} in Terra code", target)

    def aug_assign(self, node: pyast.AugAssign) -> tast.Stat:
        op = _BINOPS.get(type(node.op))
        if op is None:
            raise self.error(
                f"augmented operator {type(node.op).__name__} has no Terra "
                f"equivalent", node)
        if isinstance(node.target, pyast.Name) \
                and not self.declared(node.target.id):
            raise self.error(
                f"{node.target.id!r} is augmented before any assignment "
                f"declares it", node)
        lhs = self.expr(node.target)
        rhs = tast.BinOp(op, self.expr(node.target), self.expr(node.value),
                         self.loc(node))
        return tast.AssignStat([lhs], [rhs], self.loc(node))

    def if_stat(self, node: pyast.If) -> tast.Stat:
        branches = [(self.expr(node.test), self.block(node.body, node))]
        orelse = node.orelse
        # Python spells ``elif`` as a single If nested in orelse; flatten
        # into the branch list, matching the string parser's ``elseif``.
        while len(orelse) == 1 and isinstance(orelse[0], pyast.If):
            nested = orelse[0]
            branches.append((self.expr(nested.test),
                             self.block(nested.body, nested)))
            orelse = nested.orelse
        lowered_else = self.block(orelse, node) if orelse else None
        return tast.IfStat(branches, lowered_else, self.loc(node))

    def for_stat(self, node: pyast.For) -> tast.Stat:
        if node.orelse:
            raise self.error("for/else has no Terra equivalent", node)
        if not isinstance(node.target, pyast.Name):
            raise self.error("the Terra for-loop variable must be a simple "
                             "name", node.target)
        it = node.iter
        if not (isinstance(it, pyast.Call) and isinstance(it.func, pyast.Name)
                and it.func.id == "range" and not it.keywords
                and 1 <= len(it.args) <= 3):
            raise self.error(
                "@terra for-loops iterate over range(...) only — Terra's "
                "half-open numeric loop `for i = start, limit, step`",
                node.iter)
        bounds = [self.expr(a) for a in it.args]
        if len(bounds) == 1:
            start: tast.Expr = tast.Number(0, False, "", self.loc(it))
            limit, step = bounds[0], None
        elif len(bounds) == 2:
            (start, limit), step = bounds, None
        else:
            start, limit, step = bounds
        target = tast.VarTarget(node.target.id, None, None)
        self.scopes.append({node.target.id})
        try:
            body = self.block(node.body, node)
        finally:
            self.scopes.pop()
        return tast.ForNum(target, start, limit, step, body, self.loc(node))

    # -- expressions --------------------------------------------------------
    def expr(self, node: pyast.expr) -> tast.Expr:
        loc = self.loc(node)
        if isinstance(node, pyast.Constant):
            return self.constant(node)
        if isinstance(node, pyast.Name):
            return tast.Name(node.id, loc)
        payload = _escape_payload(node)
        if payload is not None:
            return tast.Escape(pyast.unparse(payload), loc)
        if isinstance(node, pyast.Set):
            raise self.error("an escape is a one-element set literal: "
                             "{python_expr}", node)
        if isinstance(node, pyast.BinOp):
            op = _BINOPS.get(type(node.op))
            if op is None:
                raise self.error(
                    f"operator {type(node.op).__name__} has no Terra "
                    f"equivalent", node)
            return tast.BinOp(op, self.expr(node.left), self.expr(node.right),
                              loc)
        if isinstance(node, pyast.BoolOp):
            op = "and" if isinstance(node.op, pyast.And) else "or"
            lowered = self.expr(node.values[0])
            for value in node.values[1:]:
                lowered = tast.BinOp(op, lowered, self.expr(value), loc)
            return lowered
        if isinstance(node, pyast.UnaryOp):
            if isinstance(node.op, pyast.USub):
                return tast.UnOp("-", self.expr(node.operand), loc)
            if isinstance(node.op, pyast.UAdd):
                return self.expr(node.operand)
            if isinstance(node.op, (pyast.Not, pyast.Invert)):
                # Terra's ``not``: logical on bool, bitwise on integers
                return tast.UnOp("not", self.expr(node.operand), loc)
            raise self.error(
                f"unary {type(node.op).__name__} has no Terra equivalent",
                node)
        if isinstance(node, pyast.Compare):
            if len(node.ops) != 1:
                raise self.error(
                    "chained comparisons (a < b < c) are not part of the "
                    "Terra subset; split them with `and`", node)
            op = _CMPOPS.get(type(node.ops[0]))
            if op is None:
                raise self.error(
                    f"comparison {type(node.ops[0]).__name__} has no Terra "
                    f"equivalent", node)
            return tast.BinOp(op, self.expr(node.left),
                              self.expr(node.comparators[0]), loc)
        if isinstance(node, pyast.Call):
            return self.call(node)
        if isinstance(node, pyast.Attribute):
            return tast.Select(self.expr(node.value), node.attr, loc)
        if isinstance(node, pyast.Subscript):
            if isinstance(node.slice, (pyast.Slice, pyast.Tuple)):
                raise self.error("Terra indexing takes a single expression "
                                 "(no slices)", node.slice)
            return tast.Index(self.expr(node.value), self.expr(node.slice),
                              loc)
        raise self.error(
            f"{type(node).__name__} is outside the @terra expression subset; "
            f"compute it in Python and splice it with {{...}}", node)

    def constant(self, node: pyast.Constant) -> tast.Expr:
        loc = self.loc(node)
        value = node.value
        if isinstance(value, bool):
            return tast.Bool(value, loc)
        if isinstance(value, int):
            return tast.Number(value, False, "", loc)
        if isinstance(value, float):
            return tast.Number(value, True, "", loc)
        if isinstance(value, str):
            return tast.String(value, loc)
        if value is None:
            return tast.Nil(loc)
        raise self.error(f"literal {value!r} has no Terra equivalent", node)

    def call(self, node: pyast.Call) -> tast.Expr:
        loc = self.loc(node)
        if node.keywords:
            raise self.error("Terra calls take positional arguments only",
                             node)
        if any(isinstance(a, pyast.Starred) for a in node.args):
            raise self.error("*splat arguments are not part of the Terra "
                             "subset; splice a list with {args}", node)
        if isinstance(node.func, pyast.Name):
            fname = node.func.id
            if fname == "range":
                raise self.error("range(...) is only meaningful as a "
                                 "for-loop iterator", node)
            if fname in ("addr", "deref") and not self.declared(fname):
                if len(node.args) != 1:
                    raise self.error(f"{fname}() takes exactly one argument",
                                     node)
                op = "&" if fname == "addr" else "@"
                return tast.UnOp(op, self.expr(node.args[0]), loc)
        return tast.Apply(self.expr(node.func),
                          [self.expr(a) for a in node.args], loc)


#: id(code object) -> what _function_source read, while that object lives
#: (a kernel factory decorates one ``def`` per call; code objects of two
#: files can compare equal, so identity is the key)
_SOURCES: dict = {}


def _function_source(pyfn):
    """The dedented source of ``pyfn`` and the file line it starts on."""
    code = pyfn.__code__
    read = _SOURCES.get(id(code))
    if read is not None:
        return read
    try:
        srclines, first_line = inspect.getsourcelines(pyfn)
    except (OSError, TypeError) as exc:
        raise TerraSyntaxError(
            f"@terra cannot read the source of {pyfn.__name__!r} "
            f"({code.co_filename}): the decorator frontend "
            f"re-parses the function body, so it needs the defining file"
        ) from exc
    read = _SOURCES[id(code)] = textwrap.dedent("".join(srclines)), first_line
    weakref.finalize(code, _SOURCES.pop, id(code), None)
    return read


def _lower_def(source: str, filename: str, first_line: int) -> tast.FunctionDef:
    """The template cache's ``pydef`` kind.  Lowering is syntactic —
    annotations, escapes and free names become expressions the specializer
    evaluates in each decoration's environment — so every decoration of
    the same text (a kernel factory in a loop) shares one read-only tree."""
    try:
        module = pyast.parse(source)
    except SyntaxError as exc:  # pragma: no cover - defensive
        raise TerraSyntaxError(f"could not re-parse the `def`: {exc}",
                               SourceLocation(filename, first_line, 1)) from exc
    if not module.body or not isinstance(module.body[0], pyast.FunctionDef):
        raise TerraSyntaxError(
            "@terra expects a plain `def` (async def and lambdas "
            "are not Terra functions)", SourceLocation(filename, first_line, 1))
    lowerer = _Lowerer(filename, source.splitlines(), first_line - 1)
    return lowerer.lower_function(module.body[0])


parser.PARSERS["pydef"] = _lower_def


def define_pyfunc(pyfn, environment: Environment,
                  name: Optional[str] = None) -> TerraFunction:
    """Define a Terra function from a type-annotated Python function.

    This is the decorator frontend's entry point — ``@terra`` routes
    here (``repro.terra`` dispatches on a callable argument).  The
    Python function is lowered via :class:`_Lowerer`, then handed to
    the *same* specializer and ``TerraFunction.define`` path as the
    string frontend; ``environment`` is the decoration-site lexical
    environment in which escapes and free names resolve.
    """
    if not inspect.isfunction(pyfn):
        raise TerraSyntaxError(
            f"@terra expects a plain Python function, got {pyfn!r}")
    filename = pyfn.__code__.co_filename
    fname = name or pyfn.__name__
    with trace.span("terra.pyast", cat="stage", filename=filename,
                    function=fname):
        with trace.span("lower", cat="stage", filename=filename):
            source, first_line = _function_source(pyfn)
            tdef = parser.parsed("pydef", source, filename, first_line)
        # closure cells participate in the lexical environment, exactly
        # like the enclosing-frame locals the string frontend captures
        if pyfn.__closure__:
            cells = {}
            for cellname, cell in zip(pyfn.__code__.co_freevars,
                                      pyfn.__closure__):
                try:
                    cells[cellname] = cell.cell_contents
                except ValueError:  # empty cell (still being defined)
                    pass
            if cells:
                merged = dict(cells)
                merged.update(environment.locals)
                environment = Environment(merged, environment.globals,
                                          environment.description)
        existing = environment.lookup(fname, None)
        if getattr(existing, "is_terra_function", False) \
                and not existing.isdefined():
            fn = existing  # fill in a forward declaration, like terra()
        else:
            fn = TerraFunction(fname, tdef.location)
        body_env = environment.child_with({fname: fn})
        spec = Specializer(body_env)
        with trace.span(f"specialize:{fname}", cat="stage", kind="function"):
            params, ptypes, rettype, body = spec.spec_function(tdef)
        fn.define(params, ptypes, rettype, body)
        fn.frontend = "pyast"
    if config.get("REPRO_TERRA_FRONTEND_DEBUG"):
        from ..core.prettyprint import format_specialized
        print(f"-- @terra lowered {fname} ({filename}:{tdef.location.line})",
              file=sys.stderr)
        print(format_specialized(fn), file=sys.stderr)
    return fn
