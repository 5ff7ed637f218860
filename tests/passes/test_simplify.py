"""Algebraic simplification: identities applied, unsafe cases left alone."""

import pytest

from repro import terra
from repro.core import tast
from repro.errors import TrapError
from repro.passes.simplify import SimplifyPass


def typed_fn(source, env=None):
    fn = terra(source, env=env or {})
    fn.ensure_typechecked()
    return fn


def binops(body):
    return [n for n in tast.walk(body) if isinstance(n, tast.TBinOp)]


class TestIdentities:
    @pytest.mark.parametrize("expr", [
        "x + 0", "x - 0", "0 + x",
        "x * 1", "1 * x", "x / 1",
        "x << 0", "x >> 0",
    ])
    def test_identity_erased(self, expr):
        fn = typed_fn("terra f(x : int) : int return %s end" % expr)
        assert SimplifyPass().run(fn.typed) is True
        assert binops(fn.typed.body) == []
        assert fn.compile("interp")(11) == 11

    def test_bitwise_identities(self):
        fn = typed_fn("""
        terra f(x : int) : int
          var a = x or 0
          var b = x and -1
          return (a ^ 0) + (0 ^ b) - x
        end
        """)
        SimplifyPass().run(fn.typed)
        assert fn.compile("interp")(37) == 37

    def test_mul_zero_pure_folds(self):
        fn = typed_fn("terra f(x : int) : int return x * 0 end")
        assert SimplifyPass().run(fn.typed) is True
        assert binops(fn.typed.body) == []
        ret = fn.typed.body.statements[-1]
        assert isinstance(ret.expr, tast.TConst)
        assert ret.expr.value == 0

    def test_mul_zero_impure_kept(self):
        """(x/y) * 0 must still trap when y == 0, so it is not folded."""
        fn = typed_fn("terra f(x : int, y : int) : int return (x/y) * 0 end")
        SimplifyPass().run(fn.typed)
        divides = [b for b in binops(fn.typed.body) if b.op == "/"]
        assert len(divides) == 1
        assert fn.compile("interp")(10, 2) == 0
        with pytest.raises(TrapError):
            fn.compile("interp")(10, 0)

    def test_float_identity_not_applied(self):
        """x + 0.0 changes -0.0, and x * 0.0 changes NaN: floats are left
        untouched."""
        fn = typed_fn(
            "terra f(x : double) : double return (x + 0.0) * 1.0 end")
        assert SimplifyPass().run(fn.typed) is False
        assert len(binops(fn.typed.body)) == 2

    def test_double_negation(self):
        fn = typed_fn("terra f(x : int) : int return -(-x) end")
        assert SimplifyPass().run(fn.typed) is True
        assert not any(isinstance(n, tast.TUnOp)
                       for n in tast.walk(fn.typed.body))
        assert fn.compile("interp")(-9) == -9

    def test_double_not(self):
        fn = typed_fn(
            "terra f(b : bool) : bool return not (not b) end")
        assert SimplifyPass().run(fn.typed) is True
        assert fn.compile("interp")(True) is True
        assert fn.compile("interp")(False) is False

    def test_float_negation_not_simplified(self):
        """-(-x) is actually exact for floats too, but the pass is scoped
        to integers; check it leaves floats alone rather than asserting
        anything subtle."""
        fn = typed_fn("terra f(x : double) : double return -(-x) end")
        assert SimplifyPass().run(fn.typed) is False


class TestReassociation:
    def test_chained_constants_merge(self):
        fn = typed_fn("terra f(x : int) : int return (x + 3) + 4 end")
        assert SimplifyPass().run(fn.typed) is True
        ops = binops(fn.typed.body)
        assert len(ops) == 1
        assert isinstance(ops[0].rhs, tast.TConst)
        assert ops[0].rhs.value == 7
        assert fn.compile("interp")(10) == 17

    def test_const_on_left_canonicalized(self):
        """3 + (4 + x) normalizes to x + 7 — equivalent stagings produce
        identical trees (and identical C, for the buildd cache)."""
        a = typed_fn("terra f(x : int) : int return 3 + (4 + x) end")
        b = typed_fn("terra f(x : int) : int return (x + 3) + 4 end")
        SimplifyPass().run(a.typed)
        SimplifyPass().run(b.typed)
        ra = a.typed.body.statements[-1].expr
        rb = b.typed.body.statements[-1].expr
        assert isinstance(ra, tast.TBinOp) and isinstance(rb, tast.TBinOp)
        assert isinstance(ra.lhs, tast.TVar) and isinstance(rb.lhs, tast.TVar)
        assert ra.rhs.value == rb.rhs.value == 7

    def test_swap_alone_reports_changed(self):
        """2 + x -> x + 2 with nothing else to rewrite must still report
        changed=True, so pass records and telemetry reflect the swap."""
        fn = typed_fn("terra f(x : int) : int return 2 + x end")
        assert SimplifyPass().run(fn.typed) is True
        ret = fn.typed.body.statements[-1].expr
        assert isinstance(ret.lhs, tast.TVar)
        assert isinstance(ret.rhs, tast.TConst) and ret.rhs.value == 2

    def test_multiply_chain(self):
        """(x*2)*8 reassociates to x*16, which then strength-reduces to
        x << 4 (wrapping multiply by a power of two IS a shift)."""
        fn = typed_fn("terra f(x : int) : int return (x * 2) * 8 end")
        assert SimplifyPass().run(fn.typed) is True
        ops = binops(fn.typed.body)
        assert len(ops) == 1
        assert ops[0].op == "<<" and ops[0].rhs.value == 4
        assert fn.compile("interp")(3) == 48

    def test_reassociation_wraps_like_c(self):
        """(x + INT_MAX) + 1 -> x + INT_MIN: constants combine with
        wrapping arithmetic, matching what two separate adds would do."""
        fn = typed_fn(
            "terra f(x : int) : int return (x + 2147483647) + 1 end")
        assert SimplifyPass().run(fn.typed) is True
        ops = binops(fn.typed.body)
        assert len(ops) == 1
        assert ops[0].rhs.value == -2147483648
        assert fn.compile("interp")(5) == 5 - 2147483648

    def test_mixed_ops_not_reassociated(self):
        """+ and * don't reassociate with each other; the outer *4 still
        strength-reduces to a shift."""
        fn = typed_fn("terra f(x : int) : int return (x + 3) * 4 end")
        assert SimplifyPass().run(fn.typed) is True
        ops = binops(fn.typed.body)
        assert len(ops) == 2
        assert sorted(op.op for op in ops) == ["+", "<<"]

    def test_float_not_reassociated(self):
        fn = typed_fn(
            "terra f(x : double) : double return (x + 1.0e16) + 1.0 end")
        assert SimplifyPass().run(fn.typed) is False


class TestStrengthReduction:
    def test_signed_multiply_becomes_shift(self):
        fn = typed_fn("terra f(x : int) : int return x * 8 end")
        assert SimplifyPass().run(fn.typed) is True
        ops = binops(fn.typed.body)
        assert len(ops) == 1 and ops[0].op == "<<" and ops[0].rhs.value == 3
        for x in (-7, 0, 5, 2**31 - 1, -(2**31)):
            import repro.backend.interp.values as V
            from repro.core import types as T
            expected = V.scalar_binop("*", x, 8, T.int32)
            assert fn.compile("interp")(x) == expected

    def test_unsigned_divide_becomes_shift(self):
        fn = typed_fn("terra f(x : uint32) : uint32 return x / 4 end")
        assert SimplifyPass().run(fn.typed) is True
        ops = binops(fn.typed.body)
        assert len(ops) == 1 and ops[0].op == ">>" and ops[0].rhs.value == 2
        assert fn.compile("interp")(2**32 - 1) == (2**32 - 1) // 4

    def test_unsigned_modulo_becomes_mask(self):
        fn = typed_fn("terra f(x : uint32) : uint32 return x % 16 end")
        assert SimplifyPass().run(fn.typed) is True
        ops = binops(fn.typed.body)
        assert len(ops) == 1 and ops[0].op == "&" and ops[0].rhs.value == 15
        assert fn.compile("interp")(2**32 - 3) == (2**32 - 3) % 16

    def test_signed_divide_not_reduced(self):
        """Signed / truncates toward zero; >> rounds toward -inf.  -7/4
        is -1 but -7>>2 is -2, so the signed form must stay a division."""
        fn = typed_fn("terra f(x : int) : int return x / 4 end")
        SimplifyPass().run(fn.typed)
        ops = binops(fn.typed.body)
        assert len(ops) == 1 and ops[0].op == "/"
        assert fn.compile("interp")(-7) == -1

    def test_signed_modulo_not_reduced(self):
        fn = typed_fn("terra f(x : int) : int return x % 8 end")
        SimplifyPass().run(fn.typed)
        ops = binops(fn.typed.body)
        assert len(ops) == 1 and ops[0].op == "%"
        assert fn.compile("interp")(-13) == -5

    def test_non_power_of_two_not_reduced(self):
        fn = typed_fn("terra f(x : uint32) : uint32 return x * 6 end")
        assert SimplifyPass().run(fn.typed) is False

    def test_float_multiply_not_reduced(self):
        fn = typed_fn("terra f(x : double) : double return x * 4.0 end")
        assert SimplifyPass().run(fn.typed) is False

    @pytest.mark.parametrize("x", [-9, -1, 0, 1, 7, 100, 2**31 - 1])
    def test_differential_all_reductions(self, x, backend):
        src = """
        terra f(x : int, u : uint32) : int
          return (x * 16) + [int](u / 8) + [int](u % 4)
        end
        """
        raw = typed_fn(src)
        opt = typed_fn(src)
        SimplifyPass().run(opt.typed)
        u = x & 0xFFFFFFFF
        assert raw.compile(backend)(x, u) == opt.compile(backend)(x, u)


class TestFloatExpressionTreesPinned:
    """Float expression trees must survive every pipeline level bit-for-bit:
    no float identity, reassociation, or strength reduction may fire."""

    SRC = """
    terra f(x : double, y : double) : double
      var a = (x + 1.0e16) + 1.0
      var b = (y * 2.0) * 4.0
      var c = (x + 0.0) * 1.0
      return (a - b) + c
    end
    """

    def test_multiply_add_is_not_contracted(self):
        """``a*b + c`` keeps its two roundings: contraction to a fused
        multiply-add is gcc's call under ``-ffp-contract``, never a
        pass's."""
        fn = typed_fn(
            "terra f(a : double, b : double, c : double) : double "
            "return a * b + c end")
        assert SimplifyPass().run(fn.typed) is False
        assert not any(isinstance(n, tast.TIntrinsic)
                       for n in tast.walk(fn.typed.body))

    @pytest.mark.parametrize("level", [0, 1, 2])
    @pytest.mark.parametrize("x,y", [
        (1.0, 2.0), (-0.0, 0.0), (1e-300, -1e300),
        (float("inf"), 1.0), (0.1, 0.2),
    ])
    def test_pinned_through_all_levels(self, level, x, y,
                                       monkeypatch, backend):
        import math
        monkeypatch.setenv("REPRO_TERRA_PIPELINE", str(level))
        got = terra(self.SRC, env={}).compile(backend)(x, y)
        a = (x + 1.0e16) + 1.0
        b = (y * 2.0) * 4.0
        c = (x + 0.0) * 1.0
        expected = (a - b) + c
        if math.isnan(expected):
            assert math.isnan(got)
        else:
            assert got == expected
            assert math.copysign(1.0, got) == math.copysign(1.0, expected)


class TestSemantics:
    @pytest.mark.parametrize("x", [-7, 0, 1, 255, 2**31 - 1])
    def test_differential(self, x):
        src = """
        terra f(x : int) : int
          var a = (x + 0) * 1
          var b = (a + 5) + 6
          return -(-b) + 0 * a + b * 0
        end
        """
        raw = typed_fn(src)
        opt = typed_fn(src)
        SimplifyPass().run(opt.typed)
        assert raw.compile("interp")(x) == opt.compile("interp")(x)
