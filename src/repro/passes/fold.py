"""Constant folding and control-flow pruning.

Staged programs bake meta-level constants (block sizes, strides, unrolled
indices) into the object program; folding them is what makes the paper's
separation of staging from optimization pay off.  Every fold reuses the
interpreter's own C-semantics scalar operations, so it is
semantics-preserving by construction:

* binary/unary operations over constants → constants (wrapping integers,
  truncation-toward-zero division, float32 rounding);
* numeric casts of constants → constants;
* ``if`` branches with constant conditions → the taken block (or removed);
* ``while false`` loops, zero-trip ``for`` loops, and statements after an
  unconditional exit → removed;
* short-circuit ``and``/``or`` with constant **left** sides → simplified
  (the right side is dropped only when short-circuit semantics guarantee
  it would never run, so a trapping right side is preserved exactly when
  it could trap);
* operations that could trap (``1/0``) are *never* folded away — they are
  left in place to fail at runtime.
"""

from __future__ import annotations

from ..backend.interp import values as V
from ..errors import TrapError
from ..core import tast
from ..core import types as T
from .analysis import is_const
from .manager import Pass, register_pass

_COMPARES = {"<", ">", "<=", ">=", "==", "~="}


# -- expression folds: each returns its argument when it has nothing to do ---------

def _fold_binop(e: tast.TBinOp) -> tast.TExpr:
    lhs, rhs = e.lhs, e.rhs
    if not (is_const(lhs) and is_const(rhs)):
        return e
    ty = lhs.type
    try:
        if e.op in _COMPARES:
            result = V.scalar_compare(e.op, lhs.value, rhs.value)
            return tast.TConst(result, T.bool_, e.location)
        if ty.islogical() and e.op in ("and", "or", "^"):
            result = V.scalar_binop(e.op, lhs.value, rhs.value, ty)
            return tast.TConst(result, ty, e.location)
        if ty.isarithmetic():
            result = V.scalar_binop(e.op, lhs.value, rhs.value, ty)
            return tast.TConst(result, e.type, e.location)
    except TrapError:
        return e  # division by zero etc: leave it to fail at runtime
    return e


def _fold_unop(e: tast.TUnOp) -> tast.TExpr:
    operand = e.operand
    if not is_const(operand):
        return e
    ty = operand.type
    if e.op == "-" and ty.isarithmetic():
        return tast.TConst(V.scalar_neg(operand.value, ty),
                           e.type, e.location)
    if e.op == "not":
        if ty.islogical():
            return tast.TConst(not operand.value, T.bool_, e.location)
        if ty.isintegral():
            from ..memory.layout import wrap_int
            return tast.TConst(wrap_int(~operand.value, ty), ty, e.location)
    return e


def _fold_cast(e: tast.TCast) -> tast.TExpr:
    if e.kind == "numeric" and is_const(e.expr) \
            and isinstance(e.type, T.PrimitiveType):
        value = V.scalar_cast(e.expr.value, e.expr.type, e.type)
        return tast.TConst(value, e.type, e.location)
    return e


def _fold_logical(e: tast.TLogical) -> tast.TExpr:
    lhs = e.lhs
    if is_const(lhs):
        # short-circuit: when the left side decides, the right side would
        # never have been evaluated, so dropping it preserves traps
        if e.op == "and":
            return e.rhs if lhs.value else tast.TConst(False, T.bool_,
                                                       e.location)
        return tast.TConst(True, T.bool_, e.location) if lhs.value else e.rhs
    return e


_EXPR_FOLDS = {tast.TBinOp: _fold_binop, tast.TUnOp: _fold_unop,
               tast.TCast: _fold_cast, tast.TLogical: _fold_logical}


@register_pass
class FoldPass(Pass):
    """Fold constants and prune constant control flow, in place."""

    name = "fold"

    def run(self, typed) -> bool:
        folder = _Folder()
        typed.body = folder.block(typed.body)
        return folder.changed


class _Folder:
    """One run over one body; ``changed`` is set where a rewrite happens (a
    fold returned another node, a block's list differs, an ``if`` shrank)."""

    changed = False

    def expr(self, e: tast.TExpr) -> tast.TExpr:
        # recurse into children first
        for field in e._fields:
            child = getattr(e, field)
            if isinstance(child, tast.TExpr):
                setattr(e, field, self.expr(child))
            elif isinstance(child, list):
                setattr(e, field, [
                    self.expr(c) if isinstance(c, tast.TExpr) else c
                    for c in child])
        fold = _EXPR_FOLDS.get(type(e))
        if fold is not None:
            folded = fold(e)
            if folded is not e:
                self.changed = True
            return folded
        if isinstance(e, tast.TLetIn):
            e.block = self.block(e.block)
        return e

    def block(self, block: tast.TBlock) -> tast.TBlock:
        out: list[tast.TStat] = []
        for stat in block.statements:
            out.extend(self.stat(stat))
            # a folded block ends at its first unconditional exit, so one
            # can only be last; everything after it is unreachable
            if out and isinstance(out[-1], (tast.TReturn, tast.TBreak)):
                break
        # ``stat`` returns ``[s]`` for a survivor, so comparing identities
        # sees every drop, splice and truncation
        if out != block.statements:
            self.changed = True
        block.statements = out
        return block

    def stat(self, s: tast.TStat) -> list[tast.TStat]:
        if isinstance(s, tast.TVarDecl):
            if s.inits is not None:
                s.inits = [self.expr(x) for x in s.inits]
            return [s]
        if isinstance(s, tast.TAssign):
            s.lhs = [self.expr(x) for x in s.lhs]
            s.rhs = [self.expr(x) for x in s.rhs]
            return [s]
        if isinstance(s, tast.TIf):
            return self.fold_if(s)
        if isinstance(s, tast.TWhile):
            s.cond = self.expr(s.cond)
            if is_const(s.cond) and not s.cond.value:
                return []  # while false: gone
            s.body = self.block(s.body)
            return [s]
        if isinstance(s, tast.TRepeat):
            s.body = self.block(s.body)
            s.cond = self.expr(s.cond)
            return [s]
        if isinstance(s, tast.TForNum):
            s.start = self.expr(s.start)
            s.limit = self.expr(s.limit)
            if s.step is not None:
                s.step = self.expr(s.step)
            if is_const(s.start) and is_const(s.limit) \
                    and (s.step is None or is_const(s.step)):
                # only prune when the step's SIGN is known: a non-constant
                # step is not "1" — `for i = 5, 0, s` with a runtime
                # negative s runs, and deleting it would be a miscompile
                step_val = s.step.value if s.step is not None else 1
                if step_val > 0 and s.start.value >= s.limit.value:
                    return []  # zero-trip loop
                if step_val < 0 and s.start.value <= s.limit.value:
                    return []
            s.body = self.block(s.body)
            return [s]
        if isinstance(s, tast.TDoStat):
            s.body = self.block(s.body)
            if not s.body.statements:
                return []
            return [s]
        if isinstance(s, tast.TReturn):
            if s.expr is not None:
                s.expr = self.expr(s.expr)
            return [s]
        if isinstance(s, tast.TExprStat):
            s.expr = self.expr(s.expr)
            if isinstance(s.expr, (tast.TConst, tast.TVar)):
                return []  # a bare constant/variable has no effect
            return [s]
        return [s]

    def fold_if(self, s: tast.TIf) -> list[tast.TStat]:
        branches = []
        for cond, body in s.branches:
            cond = self.expr(cond)
            if is_const(cond):
                self.changed = True  # the chain loses this branch or its tail
                if cond.value:
                    # this branch always runs; it terminates the chain
                    if not branches:
                        return list(self.block(body).statements)
                    s.branches = branches
                    s.orelse = self.block(body)
                    return [s]
                continue  # branch can never run: drop it
            branches.append((cond, self.block(body)))
        if s.orelse is not None:
            s.orelse = self.block(s.orelse)
            if not s.orelse.statements:
                s.orelse = None
                self.changed = True
        if not branches:
            return list(s.orelse.statements) if s.orelse is not None else []
        s.branches = branches
        return [s]
