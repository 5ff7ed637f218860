"""Typechecker tests: conversions, operators, methods, metamethods,
lazy/monotonic checking — the Section 4.1 type-system behaviours."""

import pytest

from repro import (declare, expr, float_, functype, int_, pointer, quote_,
                   struct, symbol, terra, unit)
from repro.core import types as T
from repro.errors import LinkError, SpecializeError, TypeCheckError


def tc_error(source, match=None, env=None):
    fn = terra(source, env=env or {})
    with pytest.raises(TypeCheckError, match=match):
        fn.ensure_typechecked()
    return fn


class TestConversions:
    def test_implicit_numeric_widening(self):
        f = terra("terra f(x : int8) : int64 return x end")
        assert f(5) == 5

    def test_implicit_int_to_float(self):
        f = terra("terra f(x : int) : double return x end")
        assert f(3) == 3.0

    def test_implicit_float_narrowing(self):
        # C-style implicit double -> float (like Terra)
        f = terra("terra f(x : double) : float return x end")
        assert f(2.5) == 2.5

    def test_bool_not_implicitly_numeric(self):
        tc_error("terra f(b : bool) : int return b end")

    def test_explicit_bool_cast(self):
        f = terra("terra f(b : bool) : int return [int](b) end")
        assert f(True) == 1 and f(False) == 0

    def test_pointer_conversion_needs_cast(self):
        tc_error("terra f(p : &int) : &float return p end",
                 match="explicit cast")

    def test_explicit_pointer_cast(self):
        f = terra("terra f(p : &int) : int64 return [int64](p) end")
        assert f(0x1000) == 0x1000

    def test_nil_adopts_pointer_type(self):
        f = terra("terra f() : &float return nil end")
        assert f().isnull()

    def test_no_truthiness(self):
        tc_error("terra f(x : int) : int if x then return 1 end return 0 end",
                 match="bool")

    def test_condition_must_not_be_pointer(self):
        tc_error("terra f(p : &int) : int if p then return 1 end return 0 end")


class TestOperators:
    def test_pointer_arithmetic(self):
        f = terra("terra f(p : &int, i : int) : &int return p + i end")
        assert int(f(1000, 3)) == 1000 + 12

    def test_pointer_difference(self):
        f = terra("terra f(a : &double, b : &double) : int64 return a - b end")
        assert f(1600, 1568) == 4

    def test_pointer_diff_type_mismatch(self):
        tc_error("terra f(a : &int, b : &float) : int64 return a - b end")

    def test_comparison_produces_bool(self):
        f = terra("terra f(a : int, b : int) : bool return a < b end")
        assert f(1, 2) is True and f(2, 1) is False

    def test_and_or_on_ints_is_bitwise(self):
        # Terra: and/or are bitwise on integers
        f = terra("terra f(a : int, b : int) : int return a and b end")
        assert f(0b1100, 0b1010) == 0b1000
        g = terra("terra g(a : int, b : int) : int return a or b end")
        assert g(0b1100, 0b1010) == 0b1110

    def test_short_circuit_and(self):
        # the rhs must not be evaluated when the lhs is false
        f = terra("""
        terra deref(p : &int) : bool return @p > 0 end
        terra f(flag : bool, p : &int) : bool
          return flag and deref(p)
        end
        """)
        assert f.f(False, None) is False  # deref(NULL) would crash

    def test_xor_shift(self):
        f = terra("terra f(a : int, b : int) : int return (a ^ b) << 1 end")
        assert f(5, 3) == (5 ^ 3) << 1

    def test_not_on_bool_and_int(self):
        f = terra("terra f(b : bool) : bool return not b end")
        assert f(True) is False
        g = terra("terra g(x : int) : int return not x end")
        assert g(0) == -1

    def test_mixed_bool_int_and_rejected(self):
        tc_error("terra f(a : bool, b : int) : int return a and b end")

    def test_integer_division_truncates(self):
        f = terra("terra f(a : int, b : int) : int return a / b end")
        assert f(7, 2) == 3
        assert f(-7, 2) == -3  # C semantics: toward zero

    def test_modulo_sign(self):
        f = terra("terra f(a : int, b : int) : int return a % b end")
        assert f(-7, 3) == -1

    def test_float_modulo(self):
        f = terra("terra f(a : double, b : double) : double return a % b end")
        assert f(7.5, 2.0) == pytest.approx(1.5)


class TestLvalues:
    def test_assign_to_rvalue_rejected(self):
        tc_error("terra f(a : int) : int (a + 1) = 2 return a end") \
            if False else None
        with pytest.raises((TypeCheckError, Exception)):
            terra("terra f(a : int) : {} a + 1 = 2 end").ensure_typechecked()

    def test_address_of_rvalue_rejected(self):
        tc_error("terra f(a : int) : &int return &(a + 1) end",
                 match="rvalue")

    def test_swap_semantics(self):
        # multi-assignment evaluates all rhs first
        f = terra("""
        terra f(a : int, b : int) : int
          a, b = b, a
          return a * 10 + b
        end
        """)
        assert f(1, 2) == 21


class TestStructsAndMethods:
    def test_field_access_through_pointer(self):
        # auto-deref: img.N on &Image (used throughout the paper)
        S = struct("struct Sx { n : int }")
        f = terra("""
        terra f(s : &Sx) : int return s.n end
        terra g() : int
          var v = Sx { 42 }
          return f(&v)
        end
        """, env={"Sx": S})
        assert f.g() == 42

    def test_unknown_field(self):
        S = struct("struct Sy { n : int }")
        tc_error("terra f(s : Sy) : int return s.bogus end",
                 match="no field", env={"Sy": S})

    def test_method_on_rvalue_rejected(self):
        S = struct("struct Sz { n : int }")
        terra("terra Sz:get() : int return self.n end", env={"Sz": S})
        tc_error("terra f() : int return Sz { 1 }:get() end",
                 match="rvalue", env={"Sz": S})

    def test_methodmissing(self):
        S = struct("struct Sm { n : int }")
        S.metamethods["__methodmissing"] = \
            lambda name, obj, *args: obj.select("n") + len(name)
        f = terra("""
        terra f() : int
          var s = Sm { 10 }
          return s:four()
        end
        """, env={"Sm": S})
        assert f() == 14

    def test_entrymissing(self):
        S = struct("struct Se { n : int }")
        S.metamethods["__entrymissing"] = \
            lambda name, obj: obj.select("n") * 2
        f = terra("""
        terra f() : int
          var s = Se { 21 }
          return s.double
        end
        """, env={"Se": S})
        assert f() == 42

    def test_zero_fill_constructor(self):
        S = struct("struct Sf { a : int, b : double, p : &int }")
        f = terra("""
        terra f() : double
          var s = Sf { 1 }
          if s.p == nil then return s.b end
          return -1.0
        end
        """, env={"Sf": S})
        assert f() == 0.0

    def test_named_constructor_fields(self):
        S = struct("struct Sg { a : int, b : int }")
        f = terra("""
        terra f() : int
          var s = Sg { b = 7, a = 2 }
          return s.a * 10 + s.b
        end
        """, env={"Sg": S})
        assert f() == 27


class TestUserDefinedCast:
    def make_complex(self):
        """The paper's Complex example, built via reflection (§4.1)."""
        Complex = struct("Complex")
        Complex.entries.append(T.StructEntry("real", T.float32))
        Complex.entries.append(T.StructEntry("imag", T.float32))

        def __cast(fromtype, totype, e):
            if fromtype is T.float32:
                return expr("Complex { e, 0.f }",
                            env={"Complex": Complex, "e": e})
            raise TypeCheckError("invalid conversion")

        Complex.metamethods["__cast"] = __cast
        return Complex

    def test_implicit_promotion(self):
        Complex = self.make_complex()
        f = terra("""
        terra addc(a : Complex, b : Complex) : Complex
          return Complex { a.real + b.real, a.imag + b.imag }
        end
        terra f(x : float) : float
          -- the float argument is implicitly converted to Complex
          var c = addc(Complex { 1.f, 2.f }, x)
          return c.real * 100.f + c.imag
        end
        """, env={"Complex": Complex})
        assert f.f(2.0) == pytest.approx(300.0 + 2.0)

    def test_invalid_source_rejected(self):
        Complex = self.make_complex()
        tc_error("terra f(b : bool) : Complex return b end",
                 env={"Complex": Complex})


class TestReturnTypes:
    def test_inferred_return(self):
        f = terra("terra f(x : int) return x + 1 end")
        assert f.gettype().returns == (T.int32,)
        assert f(1) == 2

    def test_unit_inferred(self):
        f = terra("terra f(x : int) end")
        assert f.gettype().returns == ()

    def test_tuple_return(self):
        f = terra("terra f(x : int) : {int, int} return x, x + 1 end")
        assert f(5) == (5, 6)

    def test_tuple_unpack_in_terra(self):
        f = terra("""
        terra two(x : int) : {int, int} return x, x * 2 end
        terra f(x : int) : int
          var a, b = two(x)
          return a + b
        end
        """)
        assert f.f(10) == 30

    def test_missing_return_value(self):
        tc_error("terra f() : int return end", match="return")

    def test_return_in_void(self):
        f = terra("terra f(p : &int) : {} @p = 1 return end")
        import numpy as np
        buf = np.zeros(1, dtype=np.int32)
        f(buf)
        assert buf[0] == 1

    def test_recursion_needs_annotation(self):
        with pytest.raises(TypeCheckError, match="recursive"):
            terra("""
            terra f(n : int)
              if n == 0 then return 0 end
              return f(n - 1)
            end
            """).ensure_typechecked()


class TestLazyLinking:
    def test_undefined_callee_fails_at_call(self):
        g = declare("g_undefined")
        f = terra("terra f() : int return g_undefined() end",
                  env={"g_undefined": g})
        with pytest.raises((LinkError, TypeCheckError)):
            f()

    def test_monotonic_success_after_definition(self):
        """Paper §4.1: typechecking changes monotonically from type-error
        to success as referenced functions are defined."""
        g = declare("g_later")
        f = terra("terra f() : int return g_later() + 1 end",
                  env={"g_later": g})
        with pytest.raises((LinkError, TypeCheckError)):
            f()
        terra("terra g_later() : int return 41 end", env={"g_later": g})
        assert f() == 42

    def test_definition_immutable(self):
        """A defined function can never be re-defined (paper LTDEFN);
        re-using the name creates a *new* function (Lua rebinding)."""
        f = terra("terra f() : int return 1 end")
        with pytest.raises(SpecializeError, match="already defined"):
            f.define([], [], T.int32, f.body)
        g = terra("terra f() : int return 2 end", env={"f": f})
        assert g is not f
        assert f() == 1 and g() == 2


class TestDefer:
    def test_defer_runs_at_scope_exit(self):
        f = terra("""
        terra f(p : &int) : {}
          @p = 1
          defer incr(p)
          @p = @p * 10
        end
        terra incr(p : &int) : {}
          @p = @p + 5
        end
        """, env={"incr": (incr := declare("incr"))})
        # note: incr was declared then defined inside the same terra() call
        import numpy as np
        buf = np.zeros(1, dtype=np.int32)
        f.f(buf)
        assert buf[0] == 15

    def test_defer_runs_before_return(self):
        f = terra("""
        terra bump(p : &int) : {} @p = @p + 1 end
        terra f(p : &int) : int
          defer bump(p)
          return @p
        end
        """)
        import numpy as np
        buf = np.array([10], dtype=np.int32)
        assert f.f(buf) == 10  # returned value read before the defer
        assert buf[0] == 11


class TestVectors:
    def test_vector_arithmetic(self):
        import numpy as np
        f = terra("""
        terra f(p : &float, q : &float) : {}
          var a = @[&vector(float,4)](p)
          var b = @[&vector(float,4)](q)
          @[&vector(float,4)](p) = a * b + a
        end
        """)
        x = np.array([1, 2, 3, 4], dtype=np.float32)
        y = np.array([10, 10, 10, 10], dtype=np.float32)
        f(x, y)
        assert list(x) == [11, 22, 33, 44]

    def test_scalar_broadcast(self):
        import numpy as np
        f = terra("""
        terra f(p : &float, s : float) : {}
          @[&vector(float,4)](p) = @[&vector(float,4)](p) * s
        end
        """)
        x = np.array([1, 2, 3, 4], dtype=np.float32)
        f(x, 2.0)
        assert list(x) == [2, 4, 6, 8]

    def test_vector_length_mismatch(self):
        tc_error("""
        terra f(p : &float) : {}
          var a = @[&vector(float,4)](p)
          var b = @[&vector(float,8)](p)
          a = a + b
        end
        """, match="length mismatch")

    def test_vector_index(self):
        f = terra("""
        terra f(x : float) : float
          var v = [vector(float,4)](x)
          v[2] = v[2] + 1.f
          return v[0] + v[2]
        end
        """)
        assert f(2.0) == 5.0


class TestBlockScope:
    """A binder's scope ends with its block: what C's blocks and the
    interpreter's frames give a variable, and no more.  (A name is
    resolved by the specializer; a symbol spliced past its block reaches
    the typechecker.)"""

    @pytest.mark.parametrize("body", [
        "for [s] = 0, n do end return [s]",
        "do var [s] = n end return [s]",
        "if n > 0 then var [s] = 1 end return [s]",
        "while n > 0 do var [s] = n n = n - 1 end return [s]",
        "var k = [quote_('var [s] = 1 in [s]', env={'s': s})] return [s]",
    ])
    def test_a_symbol_after_its_block_is_out_of_scope(self, body):
        tc_error(f"terra f(n : int) : int {body} end", match="not in scope",
                 env={"quote_": quote_, "s": symbol(int_, "s")})

    def test_sibling_blocks_may_bind_one_symbol(self):
        s = symbol(int_, "s")
        q = quote_("do var [s] = 20 end", env={"s": s})
        f = terra("""terra f() : int
                       [q]
                       [q]
                       var [s] = 22
                       return [s]
                     end""", env={"q": q, "s": s})
        assert f() == 22


class TestMoreNegativeCases:
    def test_shift_by_float_rejected(self):
        tc_error("terra f(a : int, b : double) : int return a << b end",
                 match="integers")

    def test_bitwise_on_floats_rejected(self):
        tc_error("terra f(a : double, b : double) : double return a ^ b end")

    def test_assignment_count_mismatch(self):
        tc_error("terra f(a : int, b : int) : {} a, b = 1 end",
                 match="targets")

    def test_var_count_mismatch(self):
        tc_error("terra f() : {} var a, b = 1 end", match="initializers")

    def test_unit_variable_rejected(self):
        ns = terra("""
        terra g() : {} end
        terra f() : {} var x = g() end
        """, env={})
        with pytest.raises(TypeCheckError, match="unit"):
            ns.f.ensure_typechecked()

    def test_untyped_uninitialized_var(self):
        tc_error("terra f() : {} var x end", match="annotation")

    def test_index_non_indexable(self):
        tc_error("terra f(x : int) : int return x[0] end", match="index")

    def test_deref_non_pointer(self):
        tc_error("terra f(x : int) : int return @x end",
                 match="dereference")

    def test_call_non_function(self):
        tc_error("terra f(x : int) : int return x(1) end",
                 match="non-function")

    def test_negate_pointer_rejected(self):
        tc_error("terra f(p : &int) : &int return -p end", match="negate")

    def test_break_outside_loop(self):
        tc_error("terra f() : {} break end", match="loop")

    def test_for_var_must_be_arithmetic(self):
        tc_error("""
        terra f(p : &int) : {}
          for i = p, p do end
        end
        """)

    def test_vector_index_oob_ok_at_typecheck(self):
        # index bounds are runtime concerns (interp traps, C is UB)
        f = terra("""
        terra f(i : int64) : float
          var v = [vector(float,4)](1.f)
          return v[i]
        end
        """)
        f.ensure_typechecked()

    def test_return_type_mismatch(self):
        tc_error("terra f(p : &int) : int return p end")

    def test_defer_non_call_rejected_at_parse(self):
        from repro.errors import TerraSyntaxError
        with pytest.raises(TerraSyntaxError, match="call"):
            terra("terra f() : {} defer 5 end")
