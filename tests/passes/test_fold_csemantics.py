"""C-semantics folding edge cases (satellite of the pipeline refactor).

The folder must produce exactly the value the backends would compute at
runtime — wrapping integers, truncation-toward-zero division, float32
rounding, short-circuit evaluation.  Each test folds a constant program
and compares the baked-in value against the same computation done at
runtime by BOTH backends (gcc builds with ``-fwrapv``, so runtime signed
overflow is well-defined and comparable).  Traps are compared on the
interpreter only: the C build would SIGFPE the test process.
"""

import math
import struct

import pytest

from repro import terra
from repro.core import tast
from repro.errors import TrapError
from repro.passes.fold import FoldPass


def folded_const(src):
    """Fold a constant-only function and return the baked return value."""
    fn = terra(src, env={})
    fn.ensure_typechecked()
    FoldPass().run(fn.typed)
    ret = fn.typed.body.statements[-1]
    assert isinstance(ret, tast.TReturn)
    assert isinstance(ret.expr, tast.TConst), "did not fold to a constant"
    return ret.expr.value


@pytest.fixture
def runtime(cbackend):
    """``runtime(src, *argsets)``: compile on both backends and return
    [(interp, c), ...] results."""
    def run(src, *argsets):
        fn = terra(src, env={})
        interp = fn.compile("interp")
        cfn = fn.compile(cbackend)
        return [(interp(*a), cfn(*a)) for a in argsets]
    return run


def f32(x):
    return struct.unpack("<f", struct.pack("<f", x))[0]


class TestWrappingOverflow:
    def test_add_wraps_at_int32(self, runtime):
        const = folded_const(
            "terra f() : int return 2147483647 + 1 end")
        assert const == -2147483648
        [(i, c)] = runtime("terra f(x : int, y : int) : int return x + y end",
                           (2147483647, 1))
        assert const == i == c

    def test_sub_wraps_at_int32(self, runtime):
        const = folded_const(
            "terra f() : int return (0 - 2147483647) - 2 end")
        assert const == 2147483647
        [(i, c)] = runtime("terra f(x : int, y : int) : int return x - y end",
                           (-2147483647, 2))
        assert const == i == c

    def test_mul_wraps_at_int32(self, runtime):
        const = folded_const(
            "terra f() : int return 100000 * 100000 end")
        assert const == (100000 * 100000) % 2**32  # happens to be positive
        [(i, c)] = runtime("terra f(x : int, y : int) : int return x * y end",
                           (100000, 100000))
        assert const == i == c

    def test_shift_into_sign_bit(self, runtime):
        const = folded_const("terra f() : int return 1 << 31 end")
        assert const == -2147483648
        [(i, c)] = runtime(
            "terra f(x : int, s : int) : int return x << s end", (1, 31))
        assert const == i == c

    def test_int8_cast_truncates(self, runtime):
        const = folded_const("terra f() : int8 return [int8](300) end")
        assert const == 300 - 256
        [(i, c)] = runtime(
            "terra f(x : int) : int8 return [int8](x) end", (300,))
        assert const == i == c


class TestTruncatingDivision:
    @pytest.mark.parametrize("a,b", [
        (7, 2), (-7, 2), (7, -2), (-7, -2), (-9, 4), (9, -4),
    ])
    def test_division_truncates_toward_zero(self, a, b, runtime):
        const = folded_const(
            "terra f() : int return %d / %d end" % (a, b))
        assert const == math.trunc(a / b)  # C99 semantics, not Lua floor
        [(i, c)] = runtime(
            "terra f(x : int, y : int) : int return x / y end", (a, b))
        assert const == i == c

    @pytest.mark.parametrize("a,b", [
        (7, 2), (-7, 2), (7, -2), (-7, -2),
    ])
    def test_modulo_sign_follows_dividend(self, a, b, runtime):
        const = folded_const(
            "terra f() : int return %d %% %d end" % (a, b))
        assert const == a - math.trunc(a / b) * b
        [(i, c)] = runtime(
            "terra f(x : int, y : int) : int return x %% y end" % (), (a, b))
        assert const == i == c

    def test_divide_by_zero_never_folded(self):
        """1/0 must stay in the tree and trap at runtime (interp only —
        the C version would SIGFPE the whole test process)."""
        fn = terra("terra f() : int return 1 / 0 end", env={})
        fn.ensure_typechecked()
        FoldPass().run(fn.typed)
        ret = fn.typed.body.statements[-1]
        assert isinstance(ret.expr, tast.TBinOp)  # still a divide
        with pytest.raises(TrapError):
            fn.compile("interp")()


class TestFloat32Rounding:
    def test_sum_rounds_at_float32(self, runtime):
        const = folded_const(
            "terra f() : float return [float](0.1) + [float](0.2) end")
        assert const == f32(f32(0.1) + f32(0.2))
        assert const != 0.1 + 0.2  # folding at float64 would be wrong
        [(i, c)] = runtime(
            "terra f(x : float, y : float) : float return x + y end",
            (f32(0.1), f32(0.2)))
        assert const == i == c

    def test_mul_rounds_at_float32(self, runtime):
        const = folded_const(
            "terra f() : float return [float](1.1) * [float](1.3) end")
        assert const == f32(f32(1.1) * f32(1.3))
        [(i, c)] = runtime(
            "terra f(x : float, y : float) : float return x * y end",
            (f32(1.1), f32(1.3)))
        assert const == i == c

    def test_double_to_float_cast_rounds(self, runtime):
        const = folded_const(
            "terra f() : float return [float](0.1) end")
        assert const == f32(0.1)
        assert const != 0.1
        [(i, c)] = runtime(
            "terra f(x : double) : float return [float](x) end", (0.1,))
        assert const == i == c

    def test_float_division_never_traps_and_folds(self, runtime):
        """Float division by zero is inf in C, not a trap — it folds."""
        const = folded_const(
            "terra f() : double return 1.0 / 0.0 end")
        assert math.isinf(const) and const > 0
        [(i, c)] = runtime(
            "terra f(x : double, y : double) : double return x / y end",
            (1.0, 0.0))
        assert const == i == c


class TestZeroTripLoopPrune:
    def count_loops(self, src):
        fn = terra(src, env={})
        fn.ensure_typechecked()
        FoldPass().run(fn.typed)
        return (fn, sum(1 for n in tast.walk(fn.typed.body)
                        if isinstance(n, tast.TForNum)))

    def test_const_zero_trip_pruned(self):
        _, loops = self.count_loops("""
        terra f() : int
          var acc = 0
          for i = 5, 0 do acc = acc + i end
          return acc
        end
        """)
        assert loops == 0

    def test_nonconst_step_not_pruned(self, cbackend):
        """`for i = 5, 0, s` runs when s is negative at runtime; the
        folder used to assume step=1 for any non-constant step and
        deleted the loop."""
        fn, loops = self.count_loops("""
        terra f(s : int) : int
          var acc = 0
          for i = 5, 0, s do acc = acc + i end
          return acc
        end
        """)
        assert loops == 1
        interp = fn.compile("interp")
        cfn = fn.compile(cbackend)
        for s in (-1, -2, 1):
            assert interp(s) == cfn(s)
        assert interp(-1) == 5 + 4 + 3 + 2 + 1

    def test_const_negative_step_prune_respects_direction(self):
        _, loops = self.count_loops("""
        terra f() : int
          var acc = 0
          for i = 0, 5, -1 do acc = acc + 1 end
          return acc
        end
        """)
        assert loops == 0


class TestShortCircuit:
    def test_false_and_trapping_rhs_folds_to_false(self):
        """The right side would never run, so dropping it is exact."""
        const = folded_const(
            "terra f() : bool return false and (1 / 0 > 0) end")
        assert const is False or const == 0

    def test_true_or_trapping_rhs_folds_to_true(self):
        const = folded_const(
            "terra f() : bool return true or (1 / 0 > 0) end")
        assert const is True or const == 1

    def test_true_and_trapping_rhs_not_folded(self):
        """true and X reduces to X — and X still traps."""
        fn = terra("terra f() : bool return true and (1 / 0 > 0) end",
                   env={})
        fn.ensure_typechecked()
        FoldPass().run(fn.typed)
        ret = fn.typed.body.statements[-1]
        assert not isinstance(ret.expr, tast.TConst)
        with pytest.raises(TrapError):
            fn.compile("interp")()

    def test_runtime_short_circuit_matches(self):
        """Non-constant short-circuit: RHS trap is reached only when the
        left side allows it (interp only for the trapping input)."""
        src = """
        terra f(b : bool, x : int) : bool
          return b and (10 / x > 0)
        end
        """
        fn = terra(src, env={})
        interp = fn.compile("interp")
        assert interp(False, 0) is False  # RHS never evaluated
        assert interp(True, 5) is True
        with pytest.raises(TrapError):
            interp(True, 0)
