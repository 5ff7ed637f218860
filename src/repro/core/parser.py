"""Recursive-descent parser for the Terra surface language.

The grammar is Lua's statement language with Terra's extensions:

* typed ``var`` declarations and typed parameters,
* ``&`` (address-of) and ``@`` (dereference) operators,
* half-open numeric ``for`` loops,
* escapes ``[ ... ]`` whose bodies are *Python* source (scanned raw by the
  lexer), usable in expression, statement, declared-variable, parameter,
  field-selection and for-loop-variable positions — every position the
  paper's Figure 5 auto-tuner kernel exercises,
* ``struct`` definitions and method definitions ``terra T:m(...)``,
* function types ``{T,...} -> T`` in type positions.

Operator precedence (loosest to tightest) mirrors Terra:
``or``, ``and``, comparisons, ``|``, ``^``, ``&``, shifts, ``+ -``,
``* / %``, unary (``not - & @``), postfix application/select/index.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Optional

from ..errors import TerraSyntaxError
from ..trace.metrics import registry
from . import ast
from .lexer import Lexer, Token

#: binary operator precedence table; higher binds tighter.
_BINARY_PRECEDENCE = {
    "or": 1,
    "and": 2,
    "<": 3, ">": 3, "<=": 3, ">=": 3, "~=": 3, "==": 3,
    "|": 4,
    "^": 5,
    "&": 6,
    "<<": 7, ">>": 7,
    "+": 8, "-": 8,
    "*": 9, "/": 9, "%": 9,
}

_UNARY_OPS = {"not", "-", "&", "@"}
_UNARY_PRECEDENCE = 10

#: tokens that terminate a block
_BLOCK_ENDERS = {"end", "else", "elseif", "until", "in"}


class Parser:
    def __init__(self, source: str, filename: str = "<terra>",
                 first_line: int = 1):
        self.lexer = Lexer(source, filename, first_line)
        #: tokens lexed so far — lazily: a ``[`` opens Python; _pos = current
        self._toks: list[Token] = []
        self._pos = 0
        self.last_line = first_line

    # -- token plumbing ------------------------------------------------------
    def peek(self, n: int = 0) -> Token:
        toks = self._toks
        while self._pos + n >= len(toks):
            toks.append(self.lexer.next_token())
        return toks[self._pos + n]

    tok = property(peek)

    def advance(self) -> Token:
        tok = self.tok
        self._pos += 1
        self.last_line = tok.location.line
        return tok

    def check(self, kind: str, value=None) -> bool:
        return self.tok.matches(kind, value)

    def check_op(self, value: str) -> bool:
        return self.tok.matches(Token.OP, value)

    def check_kw(self, value: str) -> bool:
        return self.tok.matches(Token.KEYWORD, value)

    def accept_op(self, value: str) -> bool:
        if self.check_op(value):
            self.advance()
            return True
        return False

    def accept_kw(self, value: str) -> bool:
        if self.check_kw(value):
            self.advance()
            return True
        return False

    def expect(self, kind: str, value=None) -> Token:
        if not self.tok.matches(kind, value):
            want = value if value is not None else kind
            raise TerraSyntaxError(
                f"expected {want!r} but found {self.tok.value!r}",
                self.tok.location)
        return self.advance()

    def error(self, message: str) -> TerraSyntaxError:
        return TerraSyntaxError(message, self.tok.location)

    # -- escapes ---------------------------------------------------------------
    def parse_escape(self) -> ast.Escape:
        """Parse ``[ python ]`` with the current token being ``[``."""
        open_tok = self.expect(Token.OP, "[")
        # the lexer re-scans from the end of the '[' as raw Python: forget
        # whatever was lexed past it
        del self._toks[self._pos:]
        code, loc = self.lexer.scan_escape(open_tok.end_offset)
        code = code.strip()
        if not code:
            raise TerraSyntaxError("empty escape", loc)
        return ast.Escape(code, loc)

    # -- top level ---------------------------------------------------------------
    def parse_toplevel(self) -> list[ast.Node]:
        """Parse a sequence of ``terra`` and ``struct`` definitions."""
        defs: list[ast.Node] = []
        while not self.check(Token.EOF):
            if self.check_kw("terra"):
                defs.append(self.parse_function_def())
            elif self.check_kw("struct"):
                defs.append(self.parse_struct_def())
            else:
                raise self.error(
                    f"expected 'terra' or 'struct' at top level, found "
                    f"{self.tok.value!r}")
        return defs

    def parse_function_def(self) -> ast.FunctionDef:
        loc = self.expect(Token.KEYWORD, "terra").location
        namepath: Optional[list[str]] = None
        method_name: Optional[str] = None
        if self.check(Token.NAME):
            namepath = [self.advance().value]
            while self.accept_op("."):
                namepath.append(self.expect(Token.NAME).value)
            if self.accept_op(":"):
                method_name = self.expect(Token.NAME).value
        params = self.parse_params()
        return_type_expr = None
        if self.accept_op(":"):
            return_type_expr = self.parse_type_expr()
        body = self.parse_block()
        self.expect(Token.KEYWORD, "end")
        return ast.FunctionDef(namepath, method_name, params,
                               return_type_expr, body, loc)

    def parse_params(self) -> list[ast.Param]:
        self.expect(Token.OP, "(")
        params: list[ast.Param] = []
        if not self.check_op(")"):
            while True:
                params.append(self.parse_param())
                if not self.accept_op(","):
                    break
        self.expect(Token.OP, ")")
        return params

    def parse_param(self) -> ast.Param:
        loc = self.tok.location
        if self.check_op("["):
            esc = self.parse_escape()
            type_expr = self.parse_type_expr() if self.accept_op(":") else None
            return ast.Param(None, esc, type_expr, loc)
        name = self.expect(Token.NAME).value
        type_expr = self.parse_type_expr() if self.accept_op(":") else None
        return ast.Param(name, None, type_expr, loc)

    def parse_struct_def(self) -> ast.StructDef:
        loc = self.expect(Token.KEYWORD, "struct").location
        name = self.expect(Token.NAME).value
        self.expect(Token.OP, "{")
        entries: list = []
        while not self.check_op("}"):
            if self.check(Token.NAME, "union") \
                    and self.peek(1).matches(Token.OP, "{"):
                self.advance()
                self.advance()
                members: list[tuple[str, ast.Expr]] = []
                while not self.check_op("}"):
                    field = self.expect(Token.NAME).value
                    self.expect(Token.OP, ":")
                    members.append((field, self.parse_type_expr()))
                    self.accept_op(",") or self.accept_op(";")  # noqa: B015
                self.expect(Token.OP, "}")
                entries.append(("union", members))
            else:
                field = self.expect(Token.NAME).value
                self.expect(Token.OP, ":")
                entries.append((field, self.parse_type_expr()))
            # separators between entries are optional (newlines suffice)
            self.accept_op(",") or self.accept_op(";")  # noqa: B015
        self.expect(Token.OP, "}")
        return ast.StructDef(name, entries, loc)

    def parse_quote_body(self) -> ast.QuoteBody:
        """Parse the body of a quotation: statements, optional ``in e,...``."""
        loc = self.tok.location
        block = self.parse_block()
        in_exprs = None
        if self.accept_kw("in"):
            in_exprs = self.parse_exprlist()
        if not self.check(Token.EOF):
            raise self.error(f"unexpected {self.tok.value!r} after quote body")
        return ast.QuoteBody(block, in_exprs, loc)

    def parse_single_expression(self) -> ast.Expr:
        expr = self.parse_expr()
        if not self.check(Token.EOF):
            raise self.error(f"unexpected {self.tok.value!r} after expression")
        return expr

    # -- statements ----------------------------------------------------------------
    def parse_block(self) -> ast.Block:
        loc = self.tok.location
        statements: list[ast.Stat] = []
        while True:
            if self.check(Token.EOF):
                break
            if self.tok.kind == Token.KEYWORD and self.tok.value in _BLOCK_ENDERS:
                break
            stat = self.parse_statement()
            if stat is not None:
                statements.append(stat)
        return ast.Block(statements, loc)

    def parse_statement(self) -> Optional[ast.Stat]:
        tok = self.tok
        if tok.matches(Token.OP, ";"):
            self.advance()
            return None
        if tok.kind == Token.KEYWORD:
            kw = tok.value
            if kw == "var":
                return self.parse_var_stat()
            if kw == "if":
                return self.parse_if_stat()
            if kw == "while":
                return self.parse_while_stat()
            if kw == "repeat":
                return self.parse_repeat_stat()
            if kw == "for":
                return self.parse_for_stat()
            if kw == "do":
                loc = self.advance().location
                body = self.parse_block()
                self.expect(Token.KEYWORD, "end")
                return ast.DoStat(body, loc)
            if kw == "return":
                loc = self.advance().location
                exprs: list[ast.Expr] = []
                if not self._at_statement_end():
                    exprs = self.parse_exprlist()
                return ast.ReturnStat(exprs, loc)
            if kw == "break":
                loc = self.advance().location
                return ast.BreakStat(loc)
            if kw == "defer":
                loc = self.advance().location
                call = self.parse_suffixed_expr()
                if not isinstance(call, (ast.Apply, ast.MethodCall)):
                    raise self.error("defer requires a function call")
                return ast.DeferStat(call, loc)
            if kw == "escape":
                open_tok = self.advance()
                del self._toks[self._pos:]
                code, loc = self.lexer.scan_escape_block(open_tok.end_offset)
                import textwrap
                return ast.EscapeBlock(textwrap.dedent(code), loc)
            raise self.error(f"unexpected keyword {kw!r}")
        # expression-statement / assignment / statement escape ----------------
        return self.parse_expr_statement()

    def _at_statement_end(self) -> bool:
        tok = self.tok
        if tok.kind == Token.EOF:
            return True
        if tok.kind == Token.KEYWORD and tok.value in _BLOCK_ENDERS:
            return True
        if tok.matches(Token.OP, ";"):
            return True
        return False

    def parse_var_stat(self) -> ast.VarStat:
        loc = self.expect(Token.KEYWORD, "var").location
        targets: list[ast.VarTarget] = []
        while True:
            if self.check_op("["):
                esc = self.parse_escape()
                type_expr = self.parse_type_expr() if self.accept_op(":") else None
                targets.append(ast.VarTarget(None, esc, type_expr))
            else:
                name = self.expect(Token.NAME).value
                type_expr = self.parse_type_expr() if self.accept_op(":") else None
                targets.append(ast.VarTarget(name, None, type_expr))
            if not self.accept_op(","):
                break
        inits = None
        if self.accept_op("="):
            inits = self.parse_exprlist()
        return ast.VarStat(targets, inits, loc)

    def parse_if_stat(self) -> ast.IfStat:
        loc = self.expect(Token.KEYWORD, "if").location
        branches: list[tuple[ast.Expr, ast.Block]] = []
        cond = self.parse_expr()
        self.expect(Token.KEYWORD, "then")
        branches.append((cond, self.parse_block()))
        orelse = None
        while True:
            if self.accept_kw("elseif"):
                cond = self.parse_expr()
                self.expect(Token.KEYWORD, "then")
                branches.append((cond, self.parse_block()))
                continue
            if self.accept_kw("else"):
                orelse = self.parse_block()
            self.expect(Token.KEYWORD, "end")
            break
        return ast.IfStat(branches, orelse, loc)

    def parse_while_stat(self) -> ast.WhileStat:
        loc = self.expect(Token.KEYWORD, "while").location
        cond = self.parse_expr()
        self.expect(Token.KEYWORD, "do")
        body = self.parse_block()
        self.expect(Token.KEYWORD, "end")
        return ast.WhileStat(cond, body, loc)

    def parse_repeat_stat(self) -> ast.RepeatStat:
        loc = self.expect(Token.KEYWORD, "repeat").location
        body = self.parse_block()
        self.expect(Token.KEYWORD, "until")
        cond = self.parse_expr()
        return ast.RepeatStat(body, cond, loc)

    def parse_for_stat(self) -> ast.ForNum:
        loc = self.expect(Token.KEYWORD, "for").location
        if self.check_op("["):
            esc = self.parse_escape()
            target = ast.VarTarget(None, esc, None)
        else:
            name = self.expect(Token.NAME).value
            type_expr = self.parse_type_expr() if self.accept_op(":") else None
            target = ast.VarTarget(name, None, type_expr)
        self.expect(Token.OP, "=")
        start = self.parse_expr()
        self.expect(Token.OP, ",")
        limit = self.parse_expr()
        step = self.parse_expr() if self.accept_op(",") else None
        self.expect(Token.KEYWORD, "do")
        body = self.parse_block()
        self.expect(Token.KEYWORD, "end")
        return ast.ForNum(target, start, limit, step, body, loc)

    def _parse_lhs_expr(self) -> ast.Expr:
        """A statement-leading expression: a suffixed expression, possibly
        under dereferences (``@p = v`` stores through a pointer)."""
        if self.check_op("@"):
            loc = self.advance().location
            return ast.UnOp("@", self._parse_lhs_expr(), loc)
        return self.parse_suffixed_expr()

    def parse_expr_statement(self) -> ast.Stat:
        loc = self.tok.location
        first = self._parse_lhs_expr()
        if self.check_op("=") or self.check_op(","):
            lhs = [first]
            while self.accept_op(","):
                lhs.append(self._parse_lhs_expr())
            self.expect(Token.OP, "=")
            rhs = self.parse_exprlist()
            return ast.AssignStat(lhs, rhs, loc)
        if isinstance(first, (ast.Apply, ast.MethodCall)):
            return ast.ExprStat(first, loc)
        if isinstance(first, ast.Escape):
            return ast.EscapeStat(first)
        raise self.error("expected a statement (this expression has no effect)")

    # -- expressions ----------------------------------------------------------------
    def parse_exprlist(self) -> list[ast.Expr]:
        exprs = [self.parse_expr()]
        while self.accept_op(","):
            exprs.append(self.parse_expr())
        return exprs

    def parse_expr(self, min_precedence: int = 1) -> ast.Expr:
        lhs = self.parse_unary_expr()
        while True:
            tok = self.tok
            op = None
            if tok.kind == Token.OP and tok.value in _BINARY_PRECEDENCE:
                op = tok.value
            elif tok.kind == Token.KEYWORD and tok.value in ("and", "or"):
                op = tok.value
            if op is None:
                return lhs
            prec = _BINARY_PRECEDENCE[op]
            if prec < min_precedence:
                return lhs
            loc = self.advance().location
            rhs = self.parse_expr(prec + 1)  # all our binaries associate left
            lhs = ast.BinOp(op, lhs, rhs, loc)

    def parse_unary_expr(self) -> ast.Expr:
        tok = self.tok
        if ((tok.kind == Token.OP and tok.value in ("-", "&", "@"))
                or tok.matches(Token.KEYWORD, "not")):
            loc = self.advance().location
            operand = self.parse_unary_expr()
            return ast.UnOp(tok.value, operand, loc)
        return self.parse_suffixed_expr()

    def parse_suffixed_expr(self) -> ast.Expr:
        expr = self.parse_primary_expr()
        while True:
            tok = self.tok
            if tok.matches(Token.OP, "."):
                loc = self.advance().location
                if self.check_op("["):
                    field: object = self.parse_escape()
                else:
                    field = self.expect(Token.NAME).value
                expr = ast.Select(expr, field, loc)
            elif tok.matches(Token.OP, ":") and self._is_method_call():
                loc = self.advance().location
                name = self.expect(Token.NAME).value
                args = self.parse_call_args()
                expr = ast.MethodCall(expr, name, args, loc)
            elif tok.matches(Token.OP, "("):
                loc = tok.location
                args = self.parse_call_args()
                expr = ast.Apply(expr, args, loc)
            elif tok.matches(Token.OP, "[") and tok.location.line == self.last_line:
                # a '[' on a *new* line starts a statement escape, not an
                # index — disambiguates `var x = 0 \n [stmts]` (cf. Lua's
                # ambiguous-call problem; real Terra wants a ';' here)
                loc = self.advance().location
                index = self.parse_expr()
                self.expect(Token.OP, "]")
                expr = ast.Index(expr, index, loc)
            elif tok.matches(Token.OP, "{"):
                expr = self.parse_constructor(type_expr=expr)
            else:
                return expr

    def _is_method_call(self) -> bool:
        """Distinguish ``obj:m(...)`` from a ``:`` type annotation: a method
        call's ``:`` is followed by a name and then ``(``."""
        return (self.peek(1).kind == Token.NAME
                and self.peek(2).matches(Token.OP, "("))

    def parse_call_args(self) -> list[ast.Expr]:
        self.expect(Token.OP, "(")
        args: list[ast.Expr] = []
        if not self.check_op(")"):
            args = self.parse_exprlist()
        self.expect(Token.OP, ")")
        return args

    def parse_primary_expr(self) -> ast.Expr:
        tok = self.tok
        if tok.kind == Token.NUMBER:
            self.advance()
            nv = tok.value
            return ast.Number(nv.value, nv.is_float, nv.suffix, tok.location)
        if tok.kind == Token.STRING:
            self.advance()
            return ast.String(tok.value, tok.location)
        if tok.kind == Token.NAME:
            self.advance()
            return ast.Name(tok.value, tok.location)
        if tok.kind == Token.KEYWORD:
            if tok.value == "true":
                self.advance()
                return ast.Bool(True, tok.location)
            if tok.value == "false":
                self.advance()
                return ast.Bool(False, tok.location)
            if tok.value == "nil":
                self.advance()
                return ast.Nil(tok.location)
        if tok.matches(Token.OP, "("):
            self.advance()
            expr = self.parse_expr()
            self.expect(Token.OP, ")")
            return expr
        if tok.matches(Token.OP, "["):
            return self.parse_escape()
        if tok.matches(Token.OP, "{"):
            return self.parse_constructor(type_expr=None)
        if tok.matches(Token.OP, "&"):
            # address-of reached through a non-unary path (e.g. call args)
            loc = self.advance().location
            return ast.UnOp("&", self.parse_unary_expr(), loc)
        raise self.error(f"unexpected token {tok.value!r} in expression")

    def parse_constructor(self, type_expr: Optional[ast.Expr]) -> ast.Constructor:
        loc = self.expect(Token.OP, "{").location
        fields: list[ast.CtorField] = []
        while not self.check_op("}"):
            if (self.tok.kind == Token.NAME
                    and self.peek(1).matches(Token.OP, "=")):
                name = self.advance().value
                self.advance()  # '='
                fields.append(ast.CtorField(name, self.parse_expr()))
            else:
                fields.append(ast.CtorField(None, self.parse_expr()))
            if not (self.accept_op(",") or self.accept_op(";")):
                break
        self.expect(Token.OP, "}")
        return ast.Constructor(type_expr, fields, loc)

    # -- type expressions -------------------------------------------------------
    def parse_type_expr(self) -> ast.Expr:
        """Parse a type annotation.

        Type annotations are meta-language expressions in Terra; we parse
        the common grammar (``&T``, ``T[N]``, names, namespace selects,
        constructor calls like ``vector(float,4)``, escapes, and function
        types ``{T,...} -> T``) and let the specializer evaluate it.
        """
        tok = self.tok
        if tok.matches(Token.OP, "&"):
            loc = self.advance().location
            return ast.UnOp("&", self.parse_type_expr(), loc)
        if tok.matches(Token.OP, "{"):
            loc = self.advance().location
            params: list[ast.Expr] = []
            while not self.check_op("}"):
                params.append(self.parse_type_expr())
                if not self.accept_op(","):
                    break
            self.expect(Token.OP, "}")
            if self.accept_op("->"):
                returns = self._parse_return_types()
                return ast.FunctionTypeExpr(params, returns, loc)
            # a brace list in type position is a tuple type; {} is unit
            return ast.TupleTypeExpr(params, loc)
        base = self._parse_type_atom()
        # postfix: array bounds and pointers-to-arrays chain
        while True:
            if self.check_op("[") and self.tok.location.line == self.last_line:
                # same-line only: `terra f() : int` followed by a
                # statement escape on the next line is not an array type
                loc = self.advance().location
                count = self.parse_expr()
                self.expect(Token.OP, "]")
                base = ast.Index(base, count, loc)
            elif self.check_op("->"):
                loc = self.advance().location
                returns = self._parse_return_types()
                base = ast.FunctionTypeExpr([base], returns, loc)
            else:
                return base

    def _parse_return_types(self) -> list[ast.Expr]:
        if self.check_op("{"):
            self.advance()
            returns: list[ast.Expr] = []
            while not self.check_op("}"):
                returns.append(self.parse_type_expr())
                if not self.accept_op(","):
                    break
            self.expect(Token.OP, "}")
            return returns
        return [self.parse_type_expr()]

    def _parse_type_atom(self) -> ast.Expr:
        tok = self.tok
        if tok.matches(Token.OP, "("):
            # parenthesized type, e.g. (&Shape)[2]
            self.advance()
            inner = self.parse_type_expr()
            self.expect(Token.OP, ")")
            return inner
        if tok.matches(Token.OP, "["):
            return self.parse_escape()
        if tok.kind == Token.NAME:
            self.advance()
            expr: ast.Expr = ast.Name(tok.value, tok.location)
            while True:
                if self.check_op(".") and self.peek(1).kind == Token.NAME:
                    self.advance()
                    field = self.advance().value
                    expr = ast.Select(expr, field, tok.location)
                elif self.check_op("("):
                    args = self.parse_call_args()
                    expr = ast.Apply(expr, args, tok.location)
                else:
                    return expr
        raise self.error(f"expected a type, found {tok.value!r}")


# -- public helpers ------------------------------------------------------------

def parse_toplevel(source: str, filename: str = "<terra>",
                   first_line: int = 1) -> list[ast.Node]:
    return Parser(source, filename, first_line).parse_toplevel()


def parse_quote(source: str, filename: str = "<quote>",
                first_line: int = 1) -> ast.QuoteBody:
    return Parser(source, filename, first_line).parse_quote_body()


def parse_expression(source: str, filename: str = "<expr>",
                     first_line: int = 1) -> ast.Expr:
    return Parser(source, filename, first_line).parse_single_expression()


def parse_type(source: str, filename: str = "<type>",
               first_line: int = 1) -> ast.Expr:
    parser = Parser(source, filename, first_line)
    expr = parser.parse_type_expr()
    if not parser.check(Token.EOF):
        raise parser.error("unexpected text after type")
    return expr


# -- the template cache ------------------------------------------------------------

#: source characters the cache may hold (a tree is ~65 bytes per character,
#: so ~8 MB); a longer text is parsed and not kept
TEMPLATE_CACHE_CHARS = 128 * 1024

#: kind -> ``(source, filename, first_line) -> tree``; a frontend with its
#: own surface syntax adds its kind (``frontend/pyast.py``: ``pydef``)
PARSERS = {"toplevel": parse_toplevel, "quote": parse_quote,
           "expr": parse_expression, "type": parse_type}


class TemplateCache:
    """Source text → tree: a ``quote_("...")`` in a loop is lexed, parsed
    and its escapes compiled once, as Terra parses a ``quote`` when the Lua
    chunk loads and only *specializes* it per evaluation (§4.1).  Trees are
    read-only (:mod:`repro.core.ast`) and have seen no environment, so all
    evaluations, on any thread, share one.  Least recently used texts are
    evicted past ``max_chars``; a text that fails to parse is never stored."""

    def __init__(self, max_chars: int = TEMPLATE_CACHE_CHARS):
        self.max_chars = max_chars
        self.chars = 0
        self._trees: OrderedDict = OrderedDict()
        self._lock = threading.Lock()

    def parsed(self, kind: str, source: str, filename: str,
               first_line: int = 1, span=None):
        """``source`` parsed as ``kind`` (a key of ``PARSERS``): the same
        tree for the same arguments while it stays cached.  ``span``, the
        caller's ``parse`` trace span, is told ``cached=``."""
        key = (kind, source, filename, first_line)
        with self._lock:
            tree = self._trees.get(key)
            if tree is not None:
                self._trees.move_to_end(key)
        if span is not None:
            span.set(cached=tree is not None)
        if tree is not None:
            registry().add("parse.cache.hits")
            return tree
        registry().add("parse.cache.misses")
        tree = PARSERS[kind](source, filename, first_line)
        if len(source) > self.max_chars:
            return tree
        with self._lock:
            kept = self._trees.setdefault(key, tree)
            if kept is not tree:
                return kept  # another thread missed on this text first
            self.chars += len(source)
            while self.chars > self.max_chars:
                oldest, _ = self._trees.popitem(last=False)
                self.chars -= len(oldest[1])
                registry().add("parse.cache.evictions")
            registry().set("parse.cache.chars", self.chars)
        return tree

    def clear(self) -> None:
        with self._lock:
            self._trees.clear()
            self.chars = 0
            registry().set("parse.cache.chars", 0)


#: the process-wide cache behind ``terra``/``quote_``/``expr``/``struct``
templates = TemplateCache()
parsed = templates.parsed
