"""Regression tests for the backend divergences the differential fuzzer
found — one class per fixed bug, each run on BOTH backends.

These are the "defined semantics" of the dialect (docs/LANGUAGE.md):
where C leaves behaviour undefined, this implementation picks one
meaning and both backends (and the constant folder) implement exactly
it.  Every case here diverged between the backends — or killed the host
process outright — before the fix.
"""

import math

import pytest

from repro import terra
from repro.errors import TrapError

# every row compares the two backends
pytestmark = pytest.mark.usefixtures("cbackend")


def both(src):
    """Compile one function on both backends; returns the two handles."""
    fc = terra(src).compile("c")
    fi = terra(src).compile("interp")
    return fc, fi


def agree(src, *args):
    fc, fi = both(src)
    rc, ri = fc(*args), fi(*args)
    if isinstance(rc, float):
        # the differential contract is bitwise, not approximate
        assert (math.isnan(rc) and math.isnan(ri)) or rc.hex() == ri.hex(), \
            (rc, ri)
    else:
        assert rc == ri, (rc, ri)
    return rc


class TestDivisionTraps:
    """Bug 1: ``x % 0`` compiled by gcc raised SIGFPE and killed the whole
    host process; now both backends raise TrapError with the same message."""

    def test_mod_zero_traps_both_backends(self):
        src = "terra f(a : int, b : int) : int return a % b end"
        for handle in both(src):
            with pytest.raises(TrapError, match="integer modulo by zero"):
                handle(5, 0)

    def test_div_zero_traps_both_backends(self):
        src = "terra f(a : int, b : int) : int return a / b end"
        for handle in both(src):
            with pytest.raises(TrapError, match="integer division by zero"):
                handle(5, 0)

    def test_unsigned_div_zero_traps(self):
        src = "terra f(a : uint64, b : uint64) : uint64 return a / b end"
        for handle in both(src):
            with pytest.raises(TrapError, match="division by zero"):
                handle(7, 0)

    def test_intmin_div_minus_one_wraps(self):
        # the other SIGFPE source: INT_MIN / -1 overflows; defined to wrap
        assert agree("terra f(a : int, b : int) : int return a / b end",
                     -2**31, -1) == -2**31

    def test_intmin_mod_minus_one_is_zero(self):
        assert agree("terra f(a : int, b : int) : int return a % b end",
                     -2**31, -1) == 0

    def test_int64min_div_minus_one_wraps(self):
        assert agree(
            "terra f(a : int64, b : int64) : int64 return a / b end",
            -2**63, -1) == -2**63

    def test_normal_division_still_works(self):
        assert agree("terra f(a : int, b : int) : int return a / b end",
                     -7, 2) == -3

    @pytest.mark.parametrize("ty,expr,a", [
        ("int", "a / 3", -7), ("int", "a % 3", -7),
        ("int", "a / -3", 2**31 - 1), ("int", "a / -1", -2**31),
        ("int", "a % -1", -2**31),
        ("int8", "a / 3", -128), ("uint64", "a % 10", 2**64 - 1)])
    def test_constant_divisors_agree(self, ty, expr, a):
        agree(f"terra f(a : {ty}) : {ty} return {expr} end", a)

    def test_only_a_constant_divisor_needs_no_guard(self):
        # a constant other than 0 and -1 can neither trap nor overflow: the
        # C divides directly, and the unit has no trap machinery
        assert "_tentry" not in terra(
            "terra f(a : int) : int return a / 3 + a % 7 end").get_c_source()
        for divisor in ("b", "0", "-1"):
            assert "_tentry" in terra(
                f"terra f(a : int, b : int) : int return a / {divisor} end"
            ).get_c_source()

    def test_trap_does_not_poison_later_calls(self):
        src = "terra f(a : int, b : int) : int return a % b end"
        for handle in both(src):
            with pytest.raises(TrapError):
                handle(1, 0)
            assert handle(7, 3) == 1


class TestShiftMasking:
    """Bug 2: shift counts >= bit width were C UB (gcc: whatever the CPU
    does; interp: Python's unbounded shift).  Defined as x86/LLVM
    masking: the count is taken mod the width."""

    def test_shift_by_width_plus_one(self):
        assert agree("terra f(x : int, s : int) : int return x << s end",
                     1, 33) == 2

    def test_shift_by_width_is_identity(self):
        assert agree("terra f(x : int, s : int) : int return x << s end",
                     5, 32) == 5

    def test_negative_count_masks(self):
        # -1 & 31 == 31
        assert agree("terra f(x : int, s : int) : int return x << s end",
                     1, -1) == -2**31

    def test_right_shift_masks(self):
        assert agree("terra f(x : int, s : int) : int return x >> s end",
                     256, 40) == 1

    def test_unsigned_right_shift_is_logical(self):
        assert agree(
            "terra f(x : uint32, s : uint32) : uint32 return x >> s end",
            0x80000000, 31) == 1

    def test_int64_masks_at_64(self):
        assert agree(
            "terra f(x : int64, s : int64) : int64 return x << s end",
            1, 65) == 2

    def test_constant_shift_folds_identically(self):
        # the constant folder must agree with the runtime semantics
        assert agree("terra f() : int return 1 << 33 end") == 2


CAST_CASES = [
    ("int8", 3e9, 127), ("int8", -3e9, -128),
    ("int16", 1e6, 32767), ("int16", -1e6, -32768),
    ("int32", 3e9, 2**31 - 1), ("int32", -3e9, -2**31),
    ("int64", 1e300, 2**63 - 1), ("int64", -1e300, -2**63),
    ("uint8", 300.0, 255), ("uint8", -1.5, 0),
    ("uint16", 1e6, 65535), ("uint16", -0.5, 0),
    ("uint32", 1e10, 2**32 - 1), ("uint32", -3.0, 0),
    ("uint64", 1e300, 2**64 - 1), ("uint64", -1e10, 0),
]


class TestFloatToIntSaturation:
    """Bug 3: out-of-range float->int casts diverged three ways (gcc
    constant fold vs cvttsd2si vs the interpreter).  Defined as LLVM
    ``fptosi.sat``: truncate, clamp to range, NaN -> 0."""

    @pytest.mark.parametrize("tyname,value,expected", CAST_CASES)
    def test_saturates(self, tyname, value, expected):
        src = (f"terra f(x : double) : {tyname} "
               f"return [{tyname}](x) end")
        assert agree(src, value) == expected

    def test_nan_converts_to_zero(self):
        assert agree("terra f(x : double) : int return [int](x) end",
                     math.nan) == 0

    def test_inf_saturates(self):
        src = "terra f(x : double) : int return [int](x) end"
        assert agree(src, math.inf) == 2**31 - 1
        assert agree(src, -math.inf) == -2**31

    def test_in_range_truncates_toward_zero(self):
        src = "terra f(x : double) : int return [int](x) end"
        assert agree(src, -2.9) == -2
        assert agree(src, 2.9) == 2

    def test_exact_boundary(self):
        src = "terra f(x : double) : int return [int](x) end"
        # 2^31-1 is not exactly representable in double; 2^31 is, and is
        # out of range, so it saturates
        assert agree(src, 2147483648.0) == 2**31 - 1
        assert agree(src, -2147483648.0) == -2**31

    def test_constant_cast_folds_identically(self):
        assert agree(
            "terra f() : int return [int](3e9) end") == 2**31 - 1

    def test_float32_source_saturates_too(self):
        assert agree(
            "terra f(x : float) : int16 return [int16](x) end",
            1e30) == 32767


class TestFloat32Overflow:
    """Bug 4: a double too large for float32 made the interpreter's
    struct.pack raise OverflowError; hardware (and now the interp)
    rounds to +-inf."""

    def test_multiply_overflows_to_inf(self):
        r = agree("terra f(a : float, b : float) : float return a * b end",
                  1.1e20, 3.3e18)
        assert r == math.inf

    def test_negative_overflow_to_minus_inf(self):
        r = agree("terra f(a : float, b : float) : float return a * b end",
                  -1.1e20, 3.3e18)
        assert r == -math.inf

    def test_double_argument_narrows_to_inf(self):
        r = agree("terra f(x : float) : float return x end", 1e300)
        assert r == math.inf


class TestNarrowIntPromotion:
    """Found by the fuzzer: C's integer promotions made ``int8``
    arithmetic 32-bit wide inside expressions; Terra types are exact, so
    sub-int arithmetic wraps at its own width on both backends."""

    def test_int8_add_wraps_before_compare(self):
        src = ("terra f(x : int8, y : int8) : bool "
               "return (x + x) < y end")
        # 100+100 wraps to -56 at int8; without truncation C sees 200
        assert agree(src, 100, 1) is True

    def test_uint8_mul_wraps(self):
        assert agree(
            "terra f(x : uint8) : uint8 return x * x end", 16) == 0

    def test_int16_shift_wraps(self):
        assert agree(
            "terra f(x : int16) : int16 return x << 12 end", 16) == 0

    def test_int8_neg_min_wraps(self):
        assert agree(
            "terra f(x : int8) : int8 return -x end", -128) == -128


class TestBoolCast:
    """Found by the fuzzer: casting a nonzero integer to bool and back
    must normalize to 0/1 (C's bool does; a raw byte copy does not)."""

    def test_int_to_bool_to_int_normalizes(self):
        assert agree(
            "terra f(x : int) : int return [int]([bool](x)) end", 4) == 1

    def test_zero_stays_zero(self):
        assert agree(
            "terra f(x : int) : int return [int]([bool](x)) end", 0) == 0

    def test_float_to_bool(self):
        assert agree(
            "terra f(x : double) : int return [int]([bool](x)) end",
            0.25) == 1


class TestFloatSpecialValues:
    """Found by the fuzzer: IEEE sign-of-zero and special-value edge
    cases where the interpreter's Python arithmetic disagreed with
    hardware."""

    def test_negate_zero_gives_minus_zero(self):
        r = agree("terra f(x : double) : double return -x end", 0.0)
        assert math.copysign(1.0, r) == -1.0

    def test_negate_minus_zero_gives_plus_zero(self):
        r = agree("terra f(x : double) : double return -x end", -0.0)
        assert math.copysign(1.0, r) == 1.0

    def test_divide_by_minus_zero(self):
        src = "terra f(a : double, b : double) : double return a / b end"
        assert agree(src, 1.0, -0.0) == -math.inf
        assert agree(src, -1.0, -0.0) == math.inf
        assert agree(src, -3.0, 0.0) == -math.inf

    def test_zero_over_zero_is_nan(self):
        src = "terra f(a : double, b : double) : double return a / b end"
        assert math.isnan(agree(src, 0.0, 0.0))

    def test_fmod_infinite_dividend_is_nan(self):
        src = "terra f(a : double, b : double) : double return a % b end"
        assert math.isnan(agree(src, math.inf, 2.0))

    def test_fmod_zero_divisor_is_nan(self):
        src = "terra f(a : double, b : double) : double return a % b end"
        assert math.isnan(agree(src, 5.0, 0.0))

    def test_constant_negate_zero_folds_identically(self):
        r = agree("terra f() : double return -(0.0) end")
        assert math.copysign(1.0, r) == -1.0
