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


@register_pass
class FoldPass(Pass):
    """Fold constants and prune constant control flow, in place."""

    name = "fold"

    def run(self, typed) -> bool:
        before = sum(1 for _ in tast.walk(typed.body))
        typed.body = _block(typed.body)
        return sum(1 for _ in tast.walk(typed.body)) != before


# -- expressions ------------------------------------------------------------------

def _expr(e: tast.TExpr) -> tast.TExpr:
    # recurse into children first
    for field in e._fields:
        child = getattr(e, field)
        if isinstance(child, tast.TExpr):
            setattr(e, field, _expr(child))
        elif isinstance(child, list):
            setattr(e, field, [
                _expr(c) if isinstance(c, tast.TExpr) else c for c in child])
    if isinstance(e, tast.TBinOp):
        return _fold_binop(e)
    if isinstance(e, tast.TUnOp):
        return _fold_unop(e)
    if isinstance(e, tast.TCast):
        return _fold_cast(e)
    if isinstance(e, tast.TLogical):
        return _fold_logical(e)
    if isinstance(e, tast.TLetIn):
        e.block = _block(e.block)
        return e
    return e


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


# -- statements -------------------------------------------------------------------

def _block(block: tast.TBlock) -> tast.TBlock:
    out: list[tast.TStat] = []
    for stat in block.statements:
        lowered = _stat(stat)
        for s in lowered:
            out.append(s)
            if isinstance(s, (tast.TReturn, tast.TBreak)):
                # everything after an unconditional exit is unreachable
                block.statements = out
                return block
    block.statements = out
    return block


def _stat(s: tast.TStat) -> list[tast.TStat]:
    if isinstance(s, tast.TVarDecl):
        if s.inits is not None:
            s.inits = [_expr(x) for x in s.inits]
        return [s]
    if isinstance(s, tast.TAssign):
        s.lhs = [_expr(x) for x in s.lhs]
        s.rhs = [_expr(x) for x in s.rhs]
        return [s]
    if isinstance(s, tast.TIf):
        return _fold_if(s)
    if isinstance(s, tast.TWhile):
        s.cond = _expr(s.cond)
        if is_const(s.cond) and not s.cond.value:
            return []  # while false: gone
        s.body = _block(s.body)
        return [s]
    if isinstance(s, tast.TRepeat):
        s.body = _block(s.body)
        s.cond = _expr(s.cond)
        return [s]
    if isinstance(s, tast.TForNum):
        s.start = _expr(s.start)
        s.limit = _expr(s.limit)
        if s.step is not None:
            s.step = _expr(s.step)
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
        s.body = _block(s.body)
        return [s]
    if isinstance(s, tast.TDoStat):
        s.body = _block(s.body)
        if not s.body.statements:
            return []
        return [s]
    if isinstance(s, tast.TReturn):
        if s.expr is not None:
            s.expr = _expr(s.expr)
        return [s]
    if isinstance(s, tast.TExprStat):
        s.expr = _expr(s.expr)
        if isinstance(s.expr, (tast.TConst, tast.TVar)):
            return []  # a bare constant/variable has no effect
        return [s]
    return [s]


def _fold_if(s: tast.TIf) -> list[tast.TStat]:
    branches = []
    for cond, body in s.branches:
        cond = _expr(cond)
        if is_const(cond):
            if cond.value:
                # this branch always runs; it terminates the chain
                if not branches:
                    return list(_block(body).statements)
                s.branches = branches
                s.orelse = _block(body)
                return [s]
            continue  # branch can never run: drop it
        branches.append((cond, _block(body)))
    if s.orelse is not None:
        s.orelse = _block(s.orelse)
        if not s.orelse.statements:
            s.orelse = None
    if not branches:
        return list(s.orelse.statements) if s.orelse is not None else []
    s.branches = branches
    return [s]
