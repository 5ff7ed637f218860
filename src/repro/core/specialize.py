"""Eager specialization — the paper's ``→S`` judgment.

Specialization runs *as soon as* a Terra function or quotation is defined
(paper §4.1: "Eager specialization prevents mutations in Lua code from
changing the meaning of a Terra function between when it is compiled and
when it is used").  It:

* evaluates every escape ``[e]`` in the shared lexical environment and
  embeds the result as a Terra term (rule SESC),
* resolves every variable: Terra-scope names become symbol references,
  meta-scope names become embedded values (rule SVAR),
* renames every Terra-declared variable to a fresh symbol — hygiene
  (the freshness side-conditions of rules SLET/LTDEFN),
* evaluates type annotations as meta-language expressions,
* resolves nested-namespace sugar (``std.malloc``) without explicit
  escapes.

The result is a specialized tree (:mod:`repro.core.sast`) that no longer
depends on the meta environment in any way — the basis for "separate
evaluation" of Terra code.
"""

from __future__ import annotations

import numbers
import sys
from typing import Optional

from ..errors import SpecializeError
from . import ast, sast
from . import types as T
from .env import Environment
from .quotes import Quote
from .symbols import Symbol


class Macro:
    """A meta-function invoked *during specialization* when called from
    Terra code.  Receives its arguments as quotations and returns a value
    to splice (usually a quote).  This is Terra's ``macro``."""

    __slots__ = ("fn", "name")

    def __init__(self, fn, name: Optional[str] = None):
        self.fn = fn
        self.name = name or getattr(fn, "__name__", "macro")

    def __call__(self, *args):
        # Calling a macro from Python (e.g. inside an escape) also works:
        # arguments are coerced to quotes exactly as from Terra code.
        return self.fn(*[a if isinstance(a, Quote) else Quote.wrap(a)
                         for a in args])

    def __repr__(self) -> str:
        return f"macro({self.name})"


def macro(fn) -> Macro:
    """Declare a specialization-time macro (Terra's ``macro(luafn)``)."""
    return Macro(fn)


class _SizeofBuiltin:
    """``sizeof(T)`` — usable directly in Terra code on a meta type."""

    def __repr__(self) -> str:
        return "sizeof"

    def __call__(self, ty):
        if not isinstance(ty, T.Type):
            raise SpecializeError(f"sizeof expects a Terra type, got {ty!r}")
        return ty.sizeof()


sizeof = _SizeofBuiltin()


def is_terra_function(value) -> bool:
    return getattr(value, "is_terra_function", False)


def is_global_var(value) -> bool:
    return getattr(value, "is_terra_global", False)


def is_terra_constant(value) -> bool:
    return getattr(value, "is_terra_constant", False)


def is_callback(value) -> bool:
    return getattr(value, "is_terra_callback", False)


def is_intrinsic(value) -> bool:
    return getattr(value, "is_terra_intrinsic", False)


def _embed_int(value: int, location) -> sast.SConst:
    """An integer as the narrowest of ``int32``, ``int64``, ``uint64``."""
    if T.int32.min_value() <= value <= T.int32.max_value():
        return sast.SConst(value, T.int32, location)
    if T.int64.min_value() <= value <= T.int64.max_value():
        return sast.SConst(value, T.int64, location)
    if value <= T.uint64.max_value():
        return sast.SConst(value, T.uint64, location)
    raise SpecializeError(f"integer {value} does not fit any Terra type",
                          location)


def embed_value(value, location) -> sast.SExpr:
    """Convert a meta-language (Python) value into a specialized Terra term.

    This implements the side-condition of rule SESC: the escape's result
    must lie in the subset of Lua values that are also Terra terms.
    """
    if isinstance(value, Quote):
        tree = value.as_expression()
        if isinstance(tree, sast.SVar) and tree.location is None:
            # a variable quoted in Python is located where it is spliced,
            # so an extruded one is reported there
            return sast.SVar(tree.symbol, location)
        return tree
    if isinstance(value, Symbol):
        return sast.SVar(value, location)
    if isinstance(value, bool):
        return sast.SConst(value, T.bool_, location)
    if isinstance(value, int):
        return _embed_int(int(value), location)
    if isinstance(value, float):
        return sast.SConst(float(value), T.float64, location)
    np = sys.modules.get("numpy")   # no numpy scalar exists until it loads
    if np is not None:
        if isinstance(value, np.bool_):
            return sast.SConst(bool(value), T.bool_, location)
        if isinstance(value, np.integer):
            return _embed_int(int(value), location)
        if isinstance(value, np.floating):
            ty = T.float32 if isinstance(value, np.float32) else T.float64
            return sast.SConst(float(value), ty, location)
    if isinstance(value, str):
        return sast.SString(value, location)
    if isinstance(value, T.Type):
        return sast.STypeRef(value, location)
    if is_terra_function(value):
        return sast.SFuncRef(value, location)
    if is_global_var(value):
        return sast.SGlobal(value, location)
    if is_terra_constant(value):
        return sast.SConst(value.value, value.type, location)
    if is_callback(value):
        return sast.SPyCallback(value, location)
    coerced = T.coerce_to_type(value)
    if coerced is not None:
        # Python's int/float/bool class objects name the Terra types in
        # Terra code positions (e.g. the cast [float](x))
        return sast.STypeRef(coerced, location)
    if value is None:
        raise SpecializeError(
            "escape evaluated to None, which is not a Terra term", location)
    if isinstance(value, (list, tuple)):
        raise SpecializeError(
            "a list can only be spliced in statement, argument or "
            "declaration position", location)
    if callable(value):
        raise SpecializeError(
            f"cannot embed Python callable {value!r} in Terra code; wrap it "
            f"with pycallback(fntype, fn) or macro(fn)", location)
    raise SpecializeError(
        f"value {value!r} of type {type(value).__name__} is not a Terra term",
        location)


class _Meta:
    """Marker wrapper for 'still a meta-language value' during resolution."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value


class Specializer:
    def __init__(self, env: Environment):
        self.env = env
        #: stack of dicts: Terra-scope name -> Symbol
        self.scopes: list[dict[str, Symbol]] = [{}]
        #: :meth:`terra_scope_view` of the current scopes; None = rebuild
        self._scope_view: Optional[dict[str, Quote]] = None

    # -- scope handling -----------------------------------------------------
    def push_scope(self) -> None:
        self.scopes.append({})

    def pop_scope(self) -> None:
        if self.scopes.pop():
            self._scope_view = None

    def bind(self, name: str, symbol: Symbol) -> None:
        self.scopes[-1][name] = symbol
        self._scope_view = None

    def lookup_terra(self, name: str) -> Optional[Symbol]:
        for scope in reversed(self.scopes):
            if name in scope:
                return scope[name]
        return None

    def terra_scope_view(self) -> dict[str, Quote]:
        """Terra variables as seen by escapes: quoted symbol references
        (built once per scope change; quotes copy on splice, so escapes
        can share them)."""
        view = self._scope_view
        if view is None:
            view = self._scope_view = {
                name: Quote.from_expr(sast.SVar(sym))
                for scope in self.scopes for name, sym in scope.items()}
        return view

    # -- escapes ---------------------------------------------------------------
    def eval_escape(self, escape: ast.Escape):
        try:
            return self.env.eval_escape(escape, self.terra_scope_view())
        except SpecializeError as first_error:
            # Paper-style type escapes like [&vector(float,4)] are Terra
            # type syntax, not Python; retry as a Terra type expression
            # (where `float` etc. name Terra types).
            cause = first_error.__cause__
            if not isinstance(cause, (NameError, SyntaxError)):
                raise
            try:
                from .parser import parsed
                return self.eval_type(parsed("type", escape.code, "<type>"))
            except Exception:
                raise first_error from None

    # -- meta evaluation (type annotations, namespace paths) -----------------
    def meta_eval(self, e: ast.Expr):
        """Evaluate an expression as *meta-language* code (used for type
        annotations and constructor prefixes, which are Lua expressions in
        real Terra)."""
        if isinstance(e, ast.Name):
            sym = self.lookup_terra(e.name)
            if sym is not None:
                raise SpecializeError(
                    f"{e.name!r} is a Terra variable, not a meta value",
                    e.location)
            return self.env.lookup(e.name)
        if isinstance(e, ast.Number):
            return e.value
        if isinstance(e, ast.String):
            return e.value
        if isinstance(e, ast.Bool):
            return e.value
        if isinstance(e, ast.Escape):
            return self.eval_escape(e)
        if isinstance(e, ast.Select):
            obj = self.meta_eval(e.obj)
            field = e.field
            if isinstance(field, ast.Escape):
                field = self.eval_escape(field)
            return _meta_select(obj, field, e.location)
        if isinstance(e, ast.Apply):
            fn = self.meta_eval(e.fn)
            args = [self.meta_eval(a) for a in e.args]
            try:
                return fn(*args)
            except SpecializeError:
                raise
            except Exception as exc:
                raise SpecializeError(
                    f"error calling {fn!r} during specialization: {exc!r}",
                    e.location) from exc
        if isinstance(e, ast.UnOp) and e.op == "&":
            return T.pointer(self.eval_type(e.operand))
        if isinstance(e, ast.Index):
            base = self.meta_eval(e.obj)
            if isinstance(base, T.Type):
                return T.array(base, self._const_int(e.index))
            return base[self.meta_eval(e.index)]
        if isinstance(e, ast.FunctionTypeExpr):
            params = [self.eval_type(p) for p in e.parameters]
            returns = [self.eval_type(r) for r in e.returns]
            returns = [r for r in returns if not (isinstance(r, T.TupleType)
                                                  and r.isunit())]
            return T.FunctionType(params, returns)
        if isinstance(e, ast.TupleTypeExpr):
            return T.TupleType(tuple(self.eval_type(el) for el in e.elements))
        raise SpecializeError(
            f"cannot evaluate {type(e).__name__} as a meta expression; "
            f"use an escape", getattr(e, "location", None))

    def _const_int(self, e: ast.Expr) -> int:
        value = self.meta_eval(e)
        if not isinstance(value, numbers.Integral):
            raise SpecializeError(
                f"array length must be an integer, got {value!r}",
                getattr(e, "location", None))
        return int(value)

    def eval_type(self, e: ast.Expr) -> T.Type:
        value = self.meta_eval(e)
        coerced = T.coerce_to_type(value)
        if coerced is not None:
            # a bare function type in annotation position means a function
            # pointer (Terra: `var f : {int} -> int = add1`)
            if isinstance(coerced, T.FunctionType):
                return T.pointer(coerced)
            return coerced
        raise SpecializeError(
            f"type annotation evaluated to {value!r}, which is not a Terra "
            f"type", getattr(e, "location", None))

    # -- expression specialization ----------------------------------------------
    def spec_expr(self, e: ast.Expr) -> sast.SExpr:
        if type(e) is ast.Escape:   # a term: no meta-value detour
            return embed_value(self.eval_escape(e), e.location)
        result = _SPEC.get(type(e), _unspecializable)(self, e)
        if type(result) is _Meta:
            return embed_value(result.value, e.location)
        return result

    def _spec(self, e: ast.Expr):
        """Specialize an expression; may return a :class:`_Meta` when the
        expression is (so far) a pure meta-namespace path."""
        return _SPEC.get(type(e), _unspecializable)(self, e)

    def _spec_name(self, e: ast.Name):
        sym = self.lookup_terra(e.name)
        if sym is not None:
            return sast.SVar(sym, e.location)
        try:
            return _Meta(self.env.lookup(e.name))
        except SpecializeError as exc:
            if exc.location is None:
                raise SpecializeError(exc.raw_message, e.location) from None
            raise

    def _spec_index(self, e: ast.Index):
        obj = self._spec(e.obj)
        if isinstance(obj, _Meta):
            if isinstance(obj.value, T.Type):
                # T[N] in expression position: an array type value
                return _Meta(T.array(obj.value, self._const_int(e.index)))
            obj = embed_value(obj.value, e.location)
        return sast.SIndex(obj, self.spec_expr(e.index), e.location)

    def _spec_unop(self, e: ast.UnOp):
        loc = e.location
        if e.op != "&":
            return sast.SUnOp(e.op, self.spec_expr(e.operand), loc)
        # could be a pointer-type expression (&T) or address-of
        operand = self._spec(e.operand)
        if isinstance(operand, _Meta) and isinstance(operand.value, T.Type):
            return _Meta(T.pointer(operand.value))
        if isinstance(operand, _Meta):
            operand = embed_value(operand.value, loc)
        if isinstance(operand, sast.STypeRef):
            return _Meta(T.pointer(operand.type))
        return sast.SUnOp("&", operand, loc)

    def _spec_number(self, e: ast.Number) -> sast.SConst:
        if e.is_float:
            ty = T.float32 if e.suffix == "f" else T.float64
            return sast.SConst(float(e.value), ty, e.location)
        suffix_types = {"": None, "u": T.uint32, "ll": T.int64, "ull": T.uint64}
        ty = suffix_types[e.suffix]
        if ty is None:
            value = int(e.value)
            ty = T.int32 if value <= T.int32.max_value() else T.int64
            if value > T.int64.max_value():
                ty = T.uint64
        return sast.SConst(int(e.value), ty, e.location)

    def _spec_select(self, e: ast.Select):
        field = e.field
        if isinstance(field, ast.Escape):
            field = self.eval_escape(field)
            if isinstance(field, Symbol):
                field = field.displayname or field.name
            if not isinstance(field, str):
                raise SpecializeError(
                    f"computed field name must be a string, got {field!r}",
                    e.location)
        obj = self._spec(e.obj)
        if isinstance(obj, _Meta):
            value = obj.value
            if _is_namespace(value):
                return _Meta(_meta_select(value, field, e.location))
            # otherwise embed and treat as a struct field access
            obj = embed_value(value, e.location)
        return sast.SSelect(obj, field, e.location)

    def _spec_args(self, args: list[ast.Expr]) -> list[sast.SExpr]:
        """Specialize call arguments; a list-valued escape splices multiple
        arguments (paper Fig. 5: ``self.__vtable.[name]([params])``)."""
        out: list[sast.SExpr] = []
        for a in args:
            if isinstance(a, ast.Escape):
                value = self.eval_escape(a)
                if isinstance(value, (list, tuple)):
                    out.extend(embed_value(v, a.location) for v in value)
                    continue
                out.append(embed_value(value, a.location))
            else:
                out.append(self.spec_expr(a))
        return out

    def _spec_apply(self, e: ast.Apply):
        fn = self._spec(e.fn)
        if isinstance(fn, sast.STypeRef):
            fn = _Meta(fn.type)
        if isinstance(fn, _Meta):
            value = fn.value
            coerced = T.coerce_to_type(value)
            if coerced is not None:
                value = coerced
            if isinstance(value, T.Type):
                args = self._spec_args(e.args)
                if len(args) != 1:
                    raise SpecializeError(
                        f"cast to {value} takes exactly one argument",
                        e.location)
                return sast.SCast(value, args[0], e.location)
            if value is sizeof:
                if len(e.args) != 1:
                    raise SpecializeError("sizeof takes one argument", e.location)
                ty = self.eval_type(e.args[0])
                return sast.SConst(ty.sizeof(), T.uint64, e.location)
            if isinstance(value, Macro):
                quote_args = [self._quote_arg(a) for a in e.args]
                try:
                    result = value.fn(*quote_args)
                except SpecializeError:
                    raise
                except Exception as exc:
                    raise SpecializeError(
                        f"error in macro {value.name}: {exc!r}",
                        e.location) from exc
                return embed_value(result, e.location)
            if is_intrinsic(value):
                args = self._spec_args(e.args)
                return sast.SIntrinsic(value.intrinsic_name, args, e.location)
            if is_terra_function(value) or is_global_var(value) \
                    or is_callback(value) or isinstance(value, (Quote, Symbol)):
                fn = embed_value(value, e.location)
            else:
                raise SpecializeError(
                    f"cannot call meta value {value!r} from Terra code "
                    f"(wrap Python functions with macro() or pycallback())",
                    e.location)
        return sast.SApply(fn, self._spec_args(e.args), e.location)

    def _quote_arg(self, a: ast.Expr) -> Quote:
        """A macro argument: passed as a quotation of the specialized tree."""
        return Quote.from_expr(self.spec_expr(a))

    def _spec_constructor(self, e: ast.Constructor) -> sast.SExpr:
        ctype: Optional[T.Type] = None
        if e.type_expr is not None:
            spec = self._spec(e.type_expr)
            if isinstance(spec, _Meta) and isinstance(spec.value, T.Type):
                ctype = spec.value
            elif isinstance(spec, sast.STypeRef):
                ctype = spec.type
            else:
                raise SpecializeError(
                    "constructor prefix did not evaluate to a Terra type",
                    e.location)
            if not (ctype.isstruct() or ctype.isarray()):
                raise SpecializeError(
                    f"cannot construct value of non-aggregate type {ctype}",
                    e.location)
        fields = []
        for f in e.fields:
            fields.append(sast.SCtorField(f.name, self.spec_expr(f.value)))
        return sast.SCtor(ctype, fields, e.location)

    # -- statement specialization -------------------------------------------------
    def spec_block(self, block: ast.Block) -> sast.SBlock:
        self.push_scope()
        try:
            out: list[sast.SStat] = []
            for stat in block.statements:
                self._spec_stat(stat, out)
            return sast.SBlock(out, block.location)
        finally:
            self.pop_scope()

    def _spec_stat(self, s: ast.Stat, out: list[sast.SStat]) -> None:
        loc = s.location
        if isinstance(s, ast.VarStat):
            out.append(self._spec_var_stat(s))
        elif isinstance(s, ast.AssignStat):
            lhs = [self.spec_expr(x) for x in s.lhs]
            rhs = [self.spec_expr(x) for x in s.rhs]
            out.append(sast.SAssign(lhs, rhs, loc))
        elif isinstance(s, ast.IfStat):
            branches = []
            for cond, body in s.branches:
                branches.append((self.spec_expr(cond), self.spec_block(body)))
            orelse = self.spec_block(s.orelse) if s.orelse is not None else None
            out.append(sast.SIf(branches, orelse, loc))
        elif isinstance(s, ast.WhileStat):
            out.append(sast.SWhile(self.spec_expr(s.cond),
                                   self.spec_block(s.body), loc))
        elif isinstance(s, ast.RepeatStat):
            out.append(sast.SRepeat(self.spec_block(s.body),
                                    self.spec_expr(s.cond), loc))
        elif isinstance(s, ast.ForNum):
            out.append(self._spec_for(s))
        elif isinstance(s, ast.DoStat):
            out.append(sast.SDoStat(self.spec_block(s.body), loc))
        elif isinstance(s, ast.ReturnStat):
            out.append(sast.SReturn([self.spec_expr(x) for x in s.exprs], loc))
        elif isinstance(s, ast.BreakStat):
            out.append(sast.SBreak(loc))
        elif isinstance(s, ast.ExprStat):
            out.append(sast.SExprStat(self.spec_expr(s.expr), loc))
        elif isinstance(s, ast.EscapeStat):
            self._spec_escape_stat(s, out)
        elif isinstance(s, ast.EscapeBlock):
            self._spec_escape_block(s, out)
        elif isinstance(s, ast.DeferStat):
            out.append(sast.SDefer(self.spec_expr(s.call), loc))
        else:
            raise SpecializeError(f"cannot specialize {type(s).__name__}", loc)

    def _spec_escape_stat(self, s: ast.EscapeStat, out: list[sast.SStat]) -> None:
        value = self.eval_escape(s.escape)
        self._splice_stat_value(value, s.location, out)

    def _spec_escape_block(self, s: ast.EscapeBlock,
                           out: list[sast.SStat]) -> None:
        """``escape ... end``: exec the Python block; everything passed to
        its ``emit(q)`` is spliced here, in call order."""
        emitted: list = []

        def emit(value) -> None:
            emitted.append(value)

        from collections import ChainMap
        scope = dict(self.terra_scope_view())
        scope["emit"] = emit
        local_view = ChainMap(scope, self.env.locals)
        try:
            exec(s.code_object(), self.env.globals, local_view)  # noqa: S102
        except SpecializeError:
            raise
        except Exception as exc:
            raise SpecializeError(
                f"error in escape block: {exc!r}", s.location) from exc
        for value in emitted:
            self._splice_stat_value(value, s.location, out)

    def _splice_stat_value(self, value, location, out: list[sast.SStat]) -> None:
        if value is None:
            return
        if isinstance(value, (list, tuple)):
            for v in value:
                self._splice_stat_value(v, location, out)
            return
        if isinstance(value, Quote):
            out.extend(value.as_statements())
            return
        if isinstance(value, Symbol):
            # a bare symbol as a statement is a no-op reference; allow it
            out.append(sast.SExprStat(sast.SVar(value, location), location))
            return
        raise SpecializeError(
            f"statement escape produced {value!r}, which cannot be spliced "
            f"as statements", location)

    def _spec_var_stat(self, s: ast.VarStat) -> sast.SVarDecl:
        # initializers are specialized in the *enclosing* scope
        inits = None
        if s.inits is not None:
            inits = [self.spec_expr(x) for x in s.inits]
        symbols: list[Symbol] = []
        types: list[Optional[T.Type]] = []
        bindings: list[tuple[str, Symbol]] = []
        for target in s.targets:
            declared = self.eval_type(target.type_expr) \
                if target.type_expr is not None else None
            if target.escape is not None:
                value = self.eval_escape(target.escape)
                syms = value if isinstance(value, (list, tuple)) else [value]
                for sym in syms:
                    if not isinstance(sym, Symbol):
                        raise SpecializeError(
                            f"var declaration escape must produce symbols, "
                            f"got {sym!r}", target.escape.location)
                    symbols.append(sym)
                    types.append(declared if declared is not None else sym.type)
            else:
                sym = Symbol(declared, target.name)
                symbols.append(sym)
                types.append(declared)
                bindings.append((target.name, sym))
        for name, sym in bindings:
            self.bind(name, sym)
        return sast.SVarDecl(symbols, types, inits, s.location)

    def _spec_for(self, s: ast.ForNum) -> sast.SForNum:
        start = self.spec_expr(s.start)
        limit = self.spec_expr(s.limit)
        step = self.spec_expr(s.step) if s.step is not None else None
        target = s.target
        if target.escape is not None:
            sym = self.eval_escape(target.escape)
            if not isinstance(sym, Symbol):
                raise SpecializeError(
                    f"for-loop variable escape must produce a symbol, got "
                    f"{sym!r}", target.escape.location)
        else:
            declared = self.eval_type(target.type_expr) \
                if target.type_expr is not None else None
            sym = Symbol(declared, target.name)
        self.push_scope()
        try:
            if target.name is not None:
                self.bind(target.name, sym)
            body = self.spec_block(s.body)
        finally:
            self.pop_scope()
        return sast.SForNum(sym, start, limit, step, body, s.location)

    # -- function / quote entry points -----------------------------------------
    def spec_function(self, fdef: ast.FunctionDef,
                      self_type: Optional[T.Type] = None):
        """Specialize a function definition.

        Returns ``(param_symbols, param_types, return_type, body)`` where
        ``return_type`` is None when it must be inferred.
        """
        self.push_scope()
        try:
            param_syms: list[Symbol] = []
            param_types: list[T.Type] = []
            if self_type is not None:
                sym = Symbol(self_type, "self")
                param_syms.append(sym)
                param_types.append(self_type)
                self.bind("self", sym)
            for p in fdef.params:
                self._spec_param(p, param_syms, param_types)
            rettype: Optional[T.Type] = None
            if fdef.return_type_expr is not None:
                rettype = self.eval_type(fdef.return_type_expr)
            body = self.spec_block(fdef.body)
            return param_syms, param_types, rettype, body
        finally:
            self.pop_scope()

    def _spec_param(self, p: ast.Param, syms: list[Symbol],
                    types: list[T.Type]) -> None:
        declared = self.eval_type(p.type_expr) if p.type_expr is not None else None
        if p.escape is not None:
            value = self.eval_escape(p.escape)
            values = value if isinstance(value, (list, tuple)) else [value]
            for sym in values:
                if not isinstance(sym, Symbol):
                    raise SpecializeError(
                        f"parameter escape must produce symbols, got {sym!r}",
                        p.location)
                ptype = declared if declared is not None else sym.type
                if ptype is None:
                    raise SpecializeError(
                        f"parameter symbol {sym!r} has no type", p.location)
                syms.append(sym)
                types.append(ptype)
                if sym.displayname:
                    self.bind(sym.displayname, sym)
            return
        if declared is None:
            raise SpecializeError(
                f"parameter {p.name!r} requires a type annotation", p.location)
        sym = Symbol(declared, p.name)
        syms.append(sym)
        types.append(declared)
        self.bind(p.name, sym)

    def spec_quote(self, qbody: ast.QuoteBody) -> Quote:
        self.push_scope()
        try:
            out: list[sast.SStat] = []
            for stat in qbody.block.statements:
                self._spec_stat(stat, out)
            block = sast.SBlock(out, qbody.location)
            in_exprs = None
            if qbody.in_exprs is not None:
                in_exprs = [self.spec_expr(e) for e in qbody.in_exprs]
            return Quote.from_statements(block, in_exprs)
        finally:
            self.pop_scope()


def _unspecializable(spec: Specializer, e):
    raise SpecializeError(f"cannot specialize {type(e).__name__}",
                          getattr(e, "location", None))


#: ``Specializer._spec`` by the expression's class
_SPEC = {
    ast.Number: Specializer._spec_number,
    ast.String: lambda spec, e: sast.SString(e.value, e.location),
    ast.Bool: lambda spec, e: sast.SConst(e.value, T.bool_, e.location),
    ast.Nil: lambda spec, e: sast.SNull(e.location),
    ast.Name: Specializer._spec_name,
    # escape results behave like meta values so that e.g. [table].field,
    # [intrinsic](...) and [T](...) work
    ast.Escape: lambda spec, e: _Meta(spec.eval_escape(e)),
    ast.Select: Specializer._spec_select,
    ast.Index: Specializer._spec_index,
    ast.Apply: Specializer._spec_apply,
    ast.MethodCall: lambda spec, e: sast.SMethodCall(
        spec.spec_expr(e.obj), e.name, spec._spec_args(e.args), e.location),
    ast.UnOp: Specializer._spec_unop,
    ast.BinOp: lambda spec, e: sast.SBinOp(
        e.op, spec.spec_expr(e.lhs), spec.spec_expr(e.rhs), e.location),
    ast.Constructor: Specializer._spec_constructor,
    ast.FunctionTypeExpr: lambda spec, e: _Meta(spec.meta_eval(e)),
    ast.TupleTypeExpr: lambda spec, e: _Meta(spec.meta_eval(e)),
    ast.TreeRef: lambda spec, e: e.tree,
}


def _is_namespace(value) -> bool:
    """Things whose ``.field`` means meta-namespace lookup, not struct
    field access."""
    import types as pytypes
    if isinstance(value, (dict, pytypes.ModuleType, pytypes.SimpleNamespace)):
        return True
    if isinstance(value, T.Type):
        return True  # Complex.methods, Complex.entries, ...
    # objects that opt in (e.g. the table returned by includec)
    return getattr(value, "is_terra_namespace", False)


def _meta_select(obj, field: str, location):
    if isinstance(obj, dict):
        if field not in obj:
            raise SpecializeError(f"no entry {field!r} in table", location)
        return obj[field]
    try:
        return getattr(obj, field)
    except AttributeError as exc:
        try:
            return obj[field]
        except Exception:
            raise SpecializeError(
                f"cannot select {field!r} from {obj!r}", location) from exc
