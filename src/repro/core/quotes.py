"""Quotations — blocks of specialized Terra code as first-class values.

``quote ... end`` in the paper creates "a block of Terra code that can be
spliced into another Terra expression"; the back-tick creates
single-expression quotations.  Here :func:`repro.quote_` and
:func:`repro.expr` build them from source text, and libraries build them
programmatically.

Quotes are specialized *eagerly* at creation (paper §4.1): all escapes in
the body run immediately in the enclosing lexical environment, so later
mutation of meta-level variables cannot change the quote's meaning.

Quotes also support Python operator overloading (``q1 + q2`` builds the
quote of the sum), which is how DSLs like Orion assemble expression trees
without string pasting.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..errors import SpecializeError
from . import sast
from . import types as T


class Quote:
    """A specialized fragment of Terra code.

    ``kind`` is ``"expression"`` (wraps one ``SExpr``) or ``"statements"``
    (wraps an ``SBlock`` plus optional ``in`` expressions).
    """

    EXPRESSION = "expression"
    STATEMENTS = "statements"

    __slots__ = ("kind", "tree", "in_exprs")

    def __init__(self, kind: str, tree, in_exprs: Optional[Sequence[sast.SExpr]] = None):
        assert kind in (self.EXPRESSION, self.STATEMENTS)
        self.kind = kind
        self.tree = tree
        self.in_exprs = list(in_exprs) if in_exprs is not None else None

    # -- splicing support ---------------------------------------------------
    def as_expression(self, location=None) -> sast.SExpr:
        """The tree to splice in expression position — shared, not copied:
        specialized trees are read-only (see :mod:`repro.core.sast`).  A
        statements-quote with no ``in`` expression cannot be one: the
        error names ``location``, the splice."""
        if self.kind == self.EXPRESSION:
            return self.tree
        if self.in_exprs:
            return sast.SLetIn(self.tree, self.in_exprs)
        raise SpecializeError(
            "cannot splice a statements-quote (with no 'in' expression) "
            "into expression position", location)

    def as_statements(self) -> list[sast.SStat]:
        """The statements to splice in statement position."""
        if self.kind == self.EXPRESSION:
            return [sast.SExprStat(self.tree)]
        # 'in' expressions used in statement position are evaluated for
        # effect (they are usually calls)
        return [*self.tree.statements,
                *(sast.SExprStat(e) for e in self.in_exprs or ())]

    # -- programmatic construction -------------------------------------------
    @staticmethod
    def from_expr(tree: sast.SExpr) -> "Quote":
        return Quote(Quote.EXPRESSION, tree)

    @staticmethod
    def from_statements(block: sast.SBlock,
                        in_exprs: Optional[Sequence[sast.SExpr]] = None) -> "Quote":
        return Quote(Quote.STATEMENTS, block, in_exprs)

    @staticmethod
    def wrap(value) -> "Quote":
        """Coerce a Python value (or quote, or symbol) to a Quote."""
        from .specialize import embed_value  # cycle: specialize imports quotes
        if isinstance(value, Quote):
            return value
        return Quote.from_expr(embed_value(value, None))

    def _binop(self, op: str, other, reflected: bool = False) -> "Quote":
        lhs, rhs = (other, self) if reflected else (self, other)
        return Quote.from_expr(sast.SBinOp(
            op, Quote.wrap(lhs).as_expression(), Quote.wrap(rhs).as_expression()))

    # arithmetic --------------------------------------------------------------
    def __add__(self, other):
        return self._binop("+", other)

    def __radd__(self, other):
        return self._binop("+", other, reflected=True)

    def __sub__(self, other):
        return self._binop("-", other)

    def __rsub__(self, other):
        return self._binop("-", other, reflected=True)

    def __mul__(self, other):
        return self._binop("*", other)

    def __rmul__(self, other):
        return self._binop("*", other, reflected=True)

    def __truediv__(self, other):
        return self._binop("/", other)

    def __rtruediv__(self, other):
        return self._binop("/", other, reflected=True)

    def __mod__(self, other):
        return self._binop("%", other)

    def __rmod__(self, other):
        return self._binop("%", other, reflected=True)

    def __neg__(self):
        return Quote.from_expr(sast.SUnOp("-", self.as_expression()))

    # comparisons build Terra comparisons, not Python bools -----------------
    def eq(self, other) -> "Quote":
        return self._binop("==", other)

    def ne(self, other) -> "Quote":
        return self._binop("~=", other)

    def lt(self, other) -> "Quote":
        return self._binop("<", other)

    def le(self, other) -> "Quote":
        return self._binop("<=", other)

    def gt(self, other) -> "Quote":
        return self._binop(">", other)

    def ge(self, other) -> "Quote":
        return self._binop(">=", other)

    # structure access ---------------------------------------------------------
    def select(self, field: str) -> "Quote":
        return Quote.from_expr(sast.SSelect(self.as_expression(), field))

    def index(self, idx) -> "Quote":
        return Quote.from_expr(sast.SIndex(
            self.as_expression(), Quote.wrap(idx).as_expression()))

    def __getitem__(self, idx):
        return self.index(idx)

    def call(self, *args) -> "Quote":
        return Quote.from_expr(sast.SApply(
            self.as_expression(), [Quote.wrap(a).as_expression() for a in args]))

    def __call__(self, *args):
        return self.call(*args)

    def methodcall(self, name: str, *args) -> "Quote":
        return Quote.from_expr(sast.SMethodCall(
            self.as_expression(), name,
            [Quote.wrap(a).as_expression() for a in args]))

    def addressof(self) -> "Quote":
        return Quote.from_expr(sast.SUnOp("&", self.as_expression()))

    def deref(self) -> "Quote":
        return Quote.from_expr(sast.SUnOp("@", self.as_expression()))

    def cast(self, ty: T.Type) -> "Quote":
        return Quote.from_expr(sast.SCast(ty, self.as_expression()))

    def __repr__(self) -> str:
        return f"Quote<{self.kind}>({self.tree!r})"
