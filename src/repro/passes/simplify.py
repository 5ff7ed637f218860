"""Algebraic simplification of typed IR.

Safe identities only — exact on wrapping integers, never applied to
floats where they would change NaN/signed-zero behaviour (``x*0`` is NOT
folded for floats, and ``x*0 → 0`` for integers only when ``x`` is pure,
since the operand's side effects and traps must be preserved):

* ``x+0, x-0, x|0, x^0, x<<0, x>>0, x*1, x/1 → x`` (and symmetric forms);
* ``x*0, 0*x → 0`` for integers when ``x`` is pure and trap-free;
* ``-(-x) → x`` for integers (exact mod 2^n), ``not not b → b``;
* reassociation ``(a + c1) + c2 → a + (c1+c2)`` — exact for wrapping
  integers (associativity mod 2^n), never applied to floats;
* strength reduction: ``x * 2^k → x << k`` for any integer (wrapping
  multiply by a power of two IS a shift mod 2^n), and ``x / 2^k → x >> k``,
  ``x % 2^k → x & (2^k-1)`` for **unsigned** x only — signed division
  rounds toward zero while arithmetic shift rounds toward −∞, so the
  signed forms are NOT equivalent and are left alone.

Canonicalizing these shapes matters beyond speed: tuner-generated kernels
that differ only in how constants were staged fold to identical trees,
emit byte-identical C, and therefore hit the buildd artifact cache.
"""

from __future__ import annotations

from ..backend.interp import values as V
from ..core import tast
from ..core import types as T
from .analysis import is_const, is_pure, transform_block
from .manager import Pass, register_pass


@register_pass
class SimplifyPass(Pass):
    """Apply algebraic identities bottom-up across the whole body."""

    name = "simplify"

    def run(self, typed) -> bool:
        changed = [False]

        def visit(e: tast.TExpr) -> tast.TExpr:
            out = _simplify(e)
            if out is not e:
                changed[0] = True
            return out

        transform_block(typed.body, visit)
        return changed[0]


def _simplify(e: tast.TExpr) -> tast.TExpr:
    if isinstance(e, tast.TBinOp):
        return _binop(e)
    if isinstance(e, tast.TUnOp):
        return _unop(e)
    return e


def _binop(e: tast.TBinOp) -> tast.TExpr:
    lhs, rhs = e.lhs, e.rhs
    ty = e.type
    if not (isinstance(ty, T.PrimitiveType) and ty.isintegral()):
        return e
    if is_const(rhs):
        if e.op in ("+", "-", "|", "^", "<<", ">>") and rhs.value == 0:
            return lhs
        if e.op in ("*", "/") and rhs.value == 1:
            return lhs
        if e.op == "*" and rhs.value == 0 and is_pure(lhs):
            return tast.TConst(0, ty, e.location)
    if is_const(lhs):
        if e.op in ("+", "|", "^") and lhs.value == 0:
            return rhs
        if e.op == "*" and lhs.value == 1:
            return rhs
        if e.op == "*" and lhs.value == 0 and is_pure(rhs):
            return tast.TConst(0, ty, e.location)
    # canonicalize const-on-the-left commutative forms: c + x -> x + c,
    # so reassociation below sees one shape (and equivalent stagings
    # emit identical C); a fresh node, so the caller sees the rewrite
    if e.op in ("+", "*") and is_const(lhs) and not is_const(rhs):
        e = tast.TBinOp(e.op, rhs, lhs, ty, e.location)
        lhs, rhs = e.lhs, e.rhs
    # reassociate (a + c1) + c2 -> a + (c1+c2): exact for wrapping
    # integers (associativity mod 2^n), never applied to floats
    if e.op in ("+", "*") and is_const(rhs) \
            and isinstance(lhs, tast.TBinOp) and lhs.op == e.op \
            and is_const(lhs.rhs) and lhs.type is e.type:
        folded = V.scalar_binop(e.op, lhs.rhs.value, rhs.value, ty)
        return _binop(tast.TBinOp(
            e.op, lhs.lhs, tast.TConst(folded, ty, e.location), ty,
            e.location))
    # merge shift chains (x << c1) << c2 -> x << (c1+c2): exact for <<,
    # logical >>, and arithmetic >> alike when the (masked) counts sum
    # below the width; strength-reduced multiply chains land here as
    # (x << 1) << 3 because reduction runs bottom-up
    if e.op in ("<<", ">>") and is_const(rhs) \
            and isinstance(lhs, tast.TBinOp) and lhs.op == e.op \
            and is_const(lhs.rhs) and lhs.type is ty:
        w = ty.bytes * 8
        c1 = lhs.rhs.value & (w - 1)
        c2 = rhs.value & (w - 1)
        if c1 + c2 < w:
            return tast.TBinOp(e.op, lhs.lhs,
                               tast.TConst(c1 + c2, ty, e.location),
                               ty, e.location)
    # strength reduction, after reassociation so `(x*c1)*c2` folds its
    # constants before the final multiply becomes a shift
    if is_const(rhs) and isinstance(rhs.value, int) \
            and not isinstance(rhs.value, bool) and rhs.value >= 2 \
            and rhs.value & (rhs.value - 1) == 0:
        k = rhs.value.bit_length() - 1
        if e.op == "*":
            # exact for signed AND unsigned: wrapping multiply by 2^k is
            # a left shift mod 2^n (the constant is in-range, so k < n);
            # re-enter _binop so a reduced chain merges its shift counts
            return _binop(tast.TBinOp("<<", lhs,
                                      tast.TConst(k, ty, e.location),
                                      ty, e.location))
        if not ty.signed and e.op == "/":
            # unsigned only: signed / truncates toward zero, >> toward −∞
            return _binop(tast.TBinOp(">>", lhs,
                                      tast.TConst(k, ty, e.location),
                                      ty, e.location))
        if not ty.signed and e.op == "%":
            return tast.TBinOp("&", lhs,
                               tast.TConst(rhs.value - 1, ty, e.location),
                               ty, e.location)
    return e


def _unop(e: tast.TUnOp) -> tast.TExpr:
    inner = e.operand
    ty = e.type
    if e.op == "-" and isinstance(inner, tast.TUnOp) and inner.op == "-" \
            and isinstance(ty, T.PrimitiveType) and ty.isintegral() \
            and inner.type is ty:
        return inner.operand  # -(-x) == x mod 2^n
    if e.op == "not" and ty is T.bool_ \
            and isinstance(inner, tast.TUnOp) and inner.op == "not" \
            and inner.type is T.bool_:
        return inner.operand
    return e
