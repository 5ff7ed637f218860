"""Runtime value representations and C-semantics arithmetic for the
reference interpreter.

Values follow the conventions of :mod:`repro.memory.layout`: primitives
are Python ints/floats/bools, pointers are integer addresses, vectors are
Python lists, aggregates are raw byte blobs.  Every arithmetic result is
normalized to C semantics — integers wrap at their width, ``int32``
division truncates toward zero, ``float`` (32-bit) results round to single
precision after every operation — so the interpreter agrees bit-for-bit
with gcc-compiled code.
"""

from __future__ import annotations

import math

from ...core import types as T
from ...errors import TrapError
from ...memory.layout import round_float, wrap_int


def c_int_div(a: int, b: int) -> int:
    """C integer division: truncation toward zero."""
    if b == 0:
        raise TrapError("integer division by zero")
    q = abs(a) // abs(b)
    return q if (a >= 0) == (b >= 0) else -q


def c_int_mod(a: int, b: int) -> int:
    """C ``%``: remainder with the sign of the dividend."""
    if b == 0:
        raise TrapError("integer modulo by zero")
    return a - c_int_div(a, b) * b


def scalar_binop(op: str, a, b, ty: T.PrimitiveType):
    """Apply a scalar arithmetic/bitwise op with C semantics for ``ty``."""
    if ty.isintegral():
        if op == "+":
            r = a + b
        elif op == "-":
            r = a - b
        elif op == "*":
            r = a * b
        elif op == "/":
            r = c_int_div(a, b)
        elif op == "%":
            r = c_int_mod(a, b)
        elif op in ("and", "&"):
            r = a & b
        elif op in ("or", "|"):
            r = a | b
        elif op == "^":
            r = a ^ b
        elif op == "<<":
            r = a << (b & (ty.bytes * 8 - 1))
        elif op == ">>":
            # arithmetic shift for signed, logical for unsigned (C, gcc)
            shift = b & (ty.bytes * 8 - 1)
            if ty.signed:
                r = a >> shift
            else:
                r = (a & ((1 << (ty.bytes * 8)) - 1)) >> shift
        else:
            raise TrapError(f"unknown integer op {op!r}")
        return wrap_int(r, ty)
    if ty.isfloat():
        if op == "+":
            r = a + b
        elif op == "-":
            r = a - b
        elif op == "*":
            r = a * b
        elif op == "/":
            if b == 0:
                # IEEE: x/±0 is ±inf with the signs multiplied (so 1/-0.0
                # is -inf), and 0/0 or nan/0 is nan — Python would raise
                if a == 0 or math.isnan(a):
                    r = math.nan
                else:
                    r = math.copysign(
                        math.inf, math.copysign(1.0, a) * math.copysign(1.0, b))
            else:
                r = a / b
        elif op == "%":
            # C fmod: nan for a zero divisor or an infinite dividend
            # (math.fmod raises ValueError for the latter)
            try:
                r = math.fmod(a, b) if b != 0 else math.nan
            except ValueError:
                r = math.nan
        else:
            raise TrapError(f"unknown float op {op!r}")
        return round_float(r, ty)
    if ty.islogical():
        if op in ("and", "&"):
            return bool(a) and bool(b)
        if op in ("or", "|"):
            return bool(a) or bool(b)
        if op == "^":
            return bool(a) != bool(b)
    raise TrapError(f"unsupported op {op!r} on {ty}")


def scalar_neg(value, ty: T.PrimitiveType):
    """Unary negation with C semantics: integers wrap at their width,
    floats flip the sign bit (so ``-0.0`` stays negative zero — computing
    ``0 - x`` instead would lose it)."""
    if ty.isfloat():
        return round_float(-value, ty)
    return scalar_binop("-", 0, value, ty)


def scalar_compare(op: str, a, b) -> bool:
    if op == "<":
        return a < b
    if op == ">":
        return a > b
    if op == "<=":
        return a <= b
    if op == ">=":
        return a >= b
    if op == "==":
        return a == b
    if op == "~=":
        return a != b
    raise TrapError(f"unknown comparison {op!r}")


def int_range(ty: T.PrimitiveType) -> tuple[int, int]:
    """The inclusive [min, max] range of an integral primitive type."""
    bits = ty.bytes * 8
    if ty.signed:
        return -(1 << (bits - 1)), (1 << (bits - 1)) - 1
    return 0, (1 << bits) - 1


def saturate_float_to_int(value: float, target: T.PrimitiveType) -> int:
    """The defined float→int conversion: truncate toward zero, then
    *saturate* to the target's range; NaN converts to 0.

    C leaves out-of-range conversions undefined (gcc constant-folds,
    cvttsd2si, and the interpreter used to disagree three ways); we define
    them as LLVM's ``fptosi.sat``/``fptoui.sat`` — also Rust ``as`` and
    WebAssembly ``trunc_sat`` — and both backends implement exactly this.
    See docs/LANGUAGE.md "Defined semantics"."""
    lo, hi = int_range(target)
    if math.isnan(value):
        return 0
    if math.isinf(value):
        return hi if value > 0 else lo
    truncated = int(value)  # Python int() truncates toward zero
    return min(max(truncated, lo), hi)


def scalar_cast(value, source: T.Type, target: T.PrimitiveType):
    """C-semantics conversion of a scalar value to primitive ``target``."""
    if target.islogical():
        return bool(value)
    if target.isintegral():
        if isinstance(value, bool):
            return int(value)
        if isinstance(value, float):
            return saturate_float_to_int(value, target)
        return wrap_int(int(value), target)
    # float target
    if isinstance(value, bool):
        value = int(value)
    return round_float(float(value), target)
