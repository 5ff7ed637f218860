"""Shared analyses and traversal helpers for the mid-level IR passes.

Two facilities every transform pass needs:

* :func:`is_pure` — may an expression be deleted, duplicated, or evaluated
  early without changing observable behaviour?  "Observable" includes
  interpreter *traps*: the reference backend turns division by zero and
  out-of-bounds accesses into :class:`~repro.errors.TrapError`, and the
  differential test suite asserts traps are preserved, so purity here
  means *side-effect free and trap free*.
* :func:`transform_exprs` / :func:`transform_stat` — a generic in-place
  bottom-up expression rewriter over the typed tree, so peephole passes
  (algebraic simplification) do not each reimplement statement traversal.
"""

from __future__ import annotations

from ..core import tast
from ..core import types as T

#: binary operators that can never trap in either backend (integer
#: division and modulo trap on zero; shifts are masked to the type width
#: by the interpreter, matching x86 semantics, so they cannot trap).
_NONTRAP_BINOPS = frozenset([
    "+", "-", "*", "&", "|", "^", "and", "or", "<<", ">>",
    "<", ">", "<=", ">=", "==", "~=",
])


def is_const(e) -> bool:
    """A scalar compile-time constant (the shape the folder produces)."""
    return isinstance(e, tast.TConst) and isinstance(e.type, T.PrimitiveType)


def binop_may_trap(e: tast.TBinOp) -> bool:
    """Division/modulo by a possibly-zero divisor may trap; float division
    never traps (it yields inf/nan in both backends)."""
    if e.op in ("/", "%"):
        lt = e.lhs.type
        if isinstance(lt, T.PrimitiveType) and lt.isfloat():
            return False
        if isinstance(lt, T.VectorType) and lt.isfloat():
            return False
        return not (is_const(e.rhs) and e.rhs.value != 0)
    return e.op not in _NONTRAP_BINOPS


def _pure_lvalue_chain(e: tast.TExpr) -> bool:
    """An lvalue chain rooted at a local variable: loads from it cannot
    trap (frame slots are always live while the function runs)."""
    if isinstance(e, tast.TVar):
        return True
    if isinstance(e, tast.TSelect):
        return _pure_lvalue_chain(e.obj)
    return False


#: expression nodes that are values by themselves: no effects, no traps
_LEAF_EXPRS = (tast.TConst, tast.TString, tast.TNull, tast.TVar,
               tast.TGlobal, tast.TFuncLit, tast.TCallback)


def has_side_effects(e: tast.TExpr) -> bool:
    """May evaluating ``e`` do anything observable *besides* producing a
    value or trapping — write memory, call out, advance external state?

    The expression grammar is nearly effect-free: only calls, intrinsics
    (which may fence or prefetch), and statement-carrying ``TLetIn``
    blocks can write.  Anything unrecognized is conservatively effectful.
    Traps are deliberately NOT side effects here — use
    :func:`expr_may_trap` for those; the vectorizer and the schedule
    lowering need the two questions separately (a trapping-but-effect-free
    expression may be *sunk* or *guarded*, never *hoisted*).
    """
    if isinstance(e, _LEAF_EXPRS):
        return False
    if isinstance(e, tast.TUnOp):
        return has_side_effects(e.operand)
    if isinstance(e, (tast.TBinOp, tast.TLogical)):
        return has_side_effects(e.lhs) or has_side_effects(e.rhs)
    if isinstance(e, tast.TCast):
        return has_side_effects(e.expr)
    if isinstance(e, tast.TSelect):
        return has_side_effects(e.obj)
    if isinstance(e, (tast.TIndex, tast.TVectorIndex)):
        return has_side_effects(e.obj) or has_side_effects(e.index)
    if isinstance(e, tast.TAddressOf):
        return has_side_effects(e.operand)
    if isinstance(e, tast.TCtor):
        return any(has_side_effects(x) for x in e.inits)
    # TCall, TIntrinsic, TDeref, TLetIn and anything unknown: conservative
    return True


def expr_may_trap(e: tast.TExpr) -> bool:
    """May evaluating ``e`` raise a runtime trap?

    Traps are *defined* behaviour here (``docs/LANGUAGE.md``): integer
    division/modulo by zero and out-of-bounds accesses abort the call in
    both backends, and the differential suite asserts they are preserved.
    A pass must never hoist a possibly-trapping expression past a branch
    or out of a loop whose trip count can be zero — that would introduce
    a trap the program never executed.
    """
    if isinstance(e, _LEAF_EXPRS):
        return False
    if isinstance(e, tast.TUnOp):
        return expr_may_trap(e.operand)
    if isinstance(e, tast.TBinOp):
        return binop_may_trap(e) or expr_may_trap(e.lhs) \
            or expr_may_trap(e.rhs)
    if isinstance(e, tast.TLogical):
        return expr_may_trap(e.lhs) or expr_may_trap(e.rhs)
    if isinstance(e, tast.TCast):
        # casts never trap: float->int saturates, sub-int wraps
        return expr_may_trap(e.expr)
    if isinstance(e, tast.TSelect):
        if _pure_lvalue_chain(e.obj):
            return False
        if not e.obj.lvalue:
            return expr_may_trap(e.obj)
        return True  # loads through pointer-rooted lvalues may trap
    if isinstance(e, tast.TIndex):
        oty = e.obj.type
        if isinstance(oty, T.ArrayType) and is_const(e.index) \
                and 0 <= e.index.value < oty.count:
            if _pure_lvalue_chain(e.obj):
                return expr_may_trap(e.index)
            if not e.obj.lvalue:
                return expr_may_trap(e.obj) or expr_may_trap(e.index)
        return True  # pointer indexing / runtime index: loads may trap
    if isinstance(e, tast.TVectorIndex):
        oty = e.obj.type
        if isinstance(oty, T.VectorType) and is_const(e.index) \
                and 0 <= e.index.value < oty.count:
            if _pure_lvalue_chain(e.obj):
                return expr_may_trap(e.index)
            if not e.obj.lvalue:
                return expr_may_trap(e.obj) or expr_may_trap(e.index)
        return True
    if isinstance(e, tast.TAddressOf):
        return not isinstance(e.operand, tast.TVar)
    if isinstance(e, tast.TCtor):
        return any(expr_may_trap(x) for x in e.inits)
    # TCall, TIntrinsic, TDeref, TLetIn and anything unknown: conservative
    return True


def is_pure(e: tast.TExpr) -> bool:
    """True when evaluating ``e`` has no side effects and cannot trap —
    the expression may be deleted, duplicated, or evaluated early."""
    return not has_side_effects(e) and not expr_may_trap(e)


# -- generic in-place expression rewriting ----------------------------------------

def transform_exprs(e: tast.TExpr, fn) -> tast.TExpr:
    """Rewrite an expression bottom-up: children first, then ``fn(e)``.

    ``fn`` receives every expression node and returns its replacement
    (usually the node itself).  Blocks nested inside expressions
    (``TLetIn``) have their statements rewritten too.
    """
    for field in e._fields:
        child = getattr(e, field)
        if isinstance(child, tast.TExpr):
            setattr(e, field, transform_exprs(child, fn))
        elif isinstance(child, tast.TBlock):
            transform_block(child, fn)
        elif isinstance(child, list):
            setattr(e, field, [
                transform_exprs(c, fn) if isinstance(c, tast.TExpr) else c
                for c in child])
    return fn(e)


def transform_stat(s: tast.TStat, fn) -> None:
    """Rewrite every expression under one statement (in place)."""
    if isinstance(s, tast.TIf):
        s.branches = [(transform_exprs(cond, fn), body)
                      for cond, body in s.branches]
        for _, body in s.branches:
            transform_block(body, fn)
        if s.orelse is not None:
            transform_block(s.orelse, fn)
        return
    for field in s._fields:
        child = getattr(s, field)
        if isinstance(child, tast.TExpr):
            setattr(s, field, transform_exprs(child, fn))
        elif isinstance(child, tast.TBlock):
            transform_block(child, fn)
        elif isinstance(child, list):
            setattr(s, field, [
                transform_exprs(c, fn) if isinstance(c, tast.TExpr) else c
                for c in child])


def transform_block(block: tast.TBlock, fn) -> None:
    for s in block.statements:
        transform_stat(s, fn)
