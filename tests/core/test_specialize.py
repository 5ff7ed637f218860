"""Specialization semantics — the paper's Section 4.1 design decisions.

These tests replay the design-decision examples of the paper (eager
specialization vs. meta-level mutation, hygiene, shared lexical
environment, separate evaluation) against the real implementation.
"""

import math

import numpy as np
import pytest

from repro import (Quote, bool_, constant, expr, float32, float64, global_,
                   int16, int32, int64, int8, int_, macro, quote_, symbol,
                   terra, float_, uint16, uint32, uint64, uint8)
from repro.core import sast
from repro.errors import SpecializeError


class TestSharedLexicalEnvironment:
    def test_free_variable_from_python_scope(self):
        x1 = 41
        f = terra("terra f() : int return x1 + 1 end")
        assert f() == 42

    def test_escape_sees_locals(self):
        values = {"a": 10}
        f = terra("terra f() : int return [values['a']] end")
        assert f() == 10

    def test_nested_namespace_sugar(self):
        # the paper: "lookups into nested Lua tables of the form
        # x.id1.id2...idn ... as if they were escaped"
        ns = {"inner": {"value": 7}}
        f = terra("terra f() : int return ns.inner.value end")
        assert f() == 7

    def test_terra_vars_visible_to_escapes(self):
        # the paper: Terra variables "behave as if they were escaped";
        # escapes see them as quoted references
        double_it = lambda q: q + q  # noqa: E731
        f = terra("""
        terra f(x : int) : int
          return [double_it(x)]
        end
        """)
        assert f(21) == 42


class TestEagerSpecialization:
    def test_mutation_after_definition_is_invisible(self):
        """Paper §4.1: 'let x1 = 0 in let y = ter tdecl(x2:int):int { x1 }
        in x1 := 1; y(0)' evaluates to 0."""
        x1 = 0
        y = terra("terra y(x2 : int) : int return x1 end")
        x1 = 1  # noqa: F841 - mutation after definition
        assert y(0) == 0

    def test_separate_evaluation(self):
        """Paper §4.1: Terra code executes independently of the meta
        store; rebinding x1 before the call does not change the result."""
        x1 = 1
        y = terra("terra y(x2 : int) : int return x1 end")
        x1 = 2  # noqa: F841
        assert y(0) == 1

    def test_quote_specializes_eagerly(self):
        n = 5
        q = quote_("[acc] = [acc] + [n]", env={"acc": (acc := symbol(int_, "acc")), "n": n})
        n = 99  # noqa: F841 - must not affect the existing quote
        f = terra("""
        terra f() : int
          var [acc] = 0
          [q]
          return [acc]
        end
        """)
        assert f() == 5


class TestHygiene:
    def test_no_accidental_capture(self):
        """The paper's hygiene example: a quote's variable must not
        capture a same-named variable at the splice site."""
        inner = quote_("var y : int = 1 in y")
        f = terra("""
        terra f(y : int) : int
          return y + [inner]
        end
        """)
        assert f(10) == 11

    def test_two_splices_dont_collide(self):
        q = quote_("var t : int = 1 in t")
        f = terra("terra f() : int return [q] + [q] end")
        assert f() == 2

    def test_symbol_violates_hygiene_deliberately(self):
        """§6.1: symbol() creates an identifier 'that will not be renamed'
        so separately-created quotes can share a variable."""
        s = symbol(int_, "shared")
        declare_q = quote_("var [s] = 10")
        use_q = quote_("[s] = [s] * 2")
        f = terra("""
        terra f() : int
          [declare_q]
          [use_q]
          return [s]
        end
        """)
        assert f() == 20

    def test_shadowing_in_nested_scopes(self):
        f = terra("""
        terra f() : int
          var x = 1
          do
            var x = 2
          end
          return x
        end
        """)
        assert f() == 1


class TestEscapes:
    def test_list_splice_in_statements(self):
        acc = symbol(int_, "acc")
        qs = [quote_("[acc] = [acc] + [i]") for i in range(4)]
        f = terra("""
        terra f() : int
          var [acc] = 0
          [qs]
          return [acc]
        end
        """)
        assert f() == 6

    def test_list_splice_in_args(self):
        g = terra("terra g(a : int, b : int, c : int) : int return a*100 + b*10 + c end")
        args = [expr("1"), expr("2"), expr("3")]
        f = terra("terra f() : int return g([args]) end")
        assert f() == 123

    def test_empty_statement_splice(self):
        nothing = []
        f = terra("""
        terra f() : int
          [nothing]
          return 1
        end
        """)
        assert f() == 1

    def test_escape_none_rejected(self):
        with pytest.raises(SpecializeError):
            terra("terra f() : int return [None] end")

    def test_plain_callable_rejected(self):
        fn = lambda x: x  # noqa: E731
        with pytest.raises(SpecializeError, match="macro|pycallback"):
            terra("terra f() : int return fn(1) end")

    def test_undefined_variable(self):
        with pytest.raises(SpecializeError, match="not defined"):
            terra("terra f() : int return no_such_thing_xyz end")

    def test_type_escape_with_ampersand(self):
        f = terra("""
        terra f(x : int) : int
          var p = [&int](&x)
          return @p
        end
        """)
        assert f(11) == 11

    def test_escape_error_wrapped(self):
        with pytest.raises(SpecializeError, match="ZeroDivision"):
            terra("terra f() : int return [1//0] end")


class TestMacros:
    def test_macro_receives_quotes(self):
        received = []

        @macro
        def twice(x):
            received.append(x)
            return x + x

        f = terra("terra f(v : int) : int return twice(v) end")
        assert f(4) == 8
        assert isinstance(received[0], Quote)

    def test_macro_runs_at_specialization(self):
        calls = []

        @macro
        def tracked(x):
            calls.append(1)
            return x

        terra("terra f(v : int) : int return tracked(v) end")
        assert calls == [1]  # ran eagerly, before any call

    def test_macro_error_wrapped(self):
        @macro
        def boom(x):
            raise RuntimeError("nope")

        with pytest.raises(SpecializeError, match="nope"):
            terra("terra f(v : int) : int return boom(v) end")


class TestSizeof:
    def test_sizeof_in_terra(self):
        f = terra("terra f() : int return [int](sizeof(double)) end")
        assert f() == 8

    def test_sizeof_struct(self):
        from repro import struct
        S = struct("struct S2 { a : int, b : double }")
        f = terra("terra f() : int return [int](sizeof(S))  end", env={"S": S})
        assert f() == 16


class TestTypeAnnotations:
    def test_type_from_meta_function(self):
        # the paper's Image(PixelType) pattern: types from meta calls
        def BoxType(elem):
            from repro import struct
            return struct(f"Box_{elem}").add_entry("v", elem)

        f = terra("""
        terra f(x : float) : float
          var b : [BoxType(float_)]
          b.v = x
          return b.v
        end
        """, env={"BoxType": BoxType, "float_": float_})
        assert f(2.5) == 2.5

    def test_bad_annotation(self):
        with pytest.raises(SpecializeError, match="not a Terra type"):
            terra("terra f(x : [42]) : int return 0 end")


class TestForLoopStaging:
    def test_escaped_loop_variable(self):
        # Fig 5 pattern: for [mm] = 0, NB, RM
        mm = symbol(None, "mm")
        body = quote_("[total] = [total] + [mm]",
                      env={"total": (total := symbol(int_, "total")), "mm": mm})
        f = terra("""
        terra f() : int
          var [total] = 0
          for [mm] = 0, 10, 2 do
            [body]
          end
          return [total]
        end
        """)
        assert f() == 0 + 2 + 4 + 6 + 8


class TestEscapeBlocks:
    """`escape ... emit(...) end` — multi-statement Python generators
    inline in Terra code (Terra's escape/emit)."""

    def test_emit_loop(self):
        acc = symbol(int_, "acc")
        f = terra('''
        terra f() : int
          var [acc] = 0
          escape
            for i in range(5):
                emit(quote_("[acc] = [acc] + [i]",
                            env=dict(acc=acc, i=i)))
          end
          return [acc]
        end
        ''')
        assert f() == 10

    def test_emit_sees_terra_scope(self):
        double_up = lambda q: q + q  # noqa: E731
        f = terra('''
        terra f(x : int) : int
          var out = 0
          escape
            emit(quote_("out = [double_up(x)]",
                        env=dict(double_up=double_up, x=x, out=out)))
          end
          return out
        end
        ''')
        assert f(21) == 42

    def test_emit_nothing_is_fine(self):
        f = terra('''
        terra f() : int
          escape
            pass
          end
          return 7
        end
        ''')
        assert f() == 7

    def test_conditional_generation(self):
        for flag, expected in ((True, 100), (False, 1)):
            f = terra('''
            terra f() : int
              var v = 1
              escape
                if flag:
                    emit(quote_("v = 100", env=dict(v=v)))
              end
              return v
            end
            ''', env={"flag": flag})
            assert f() == expected

    def test_python_error_wrapped(self):
        with pytest.raises(SpecializeError, match="boom"):
            terra('''
            terra f() : int
              escape
                raise RuntimeError("boom")
              end
              return 0
            end
            ''')

    def test_end_inside_python_string_ok(self):
        f = terra('''
        terra f() : int
          var v = 0
          escape
            label = "the end marker"
            emit(quote_("v = [len(label)]", env=dict(v=v, label=label)))
          end
          return v
        end
        ''')
        assert f() == len("the end marker")


class TestSplicedConstants:
    """Extreme and boolean Python values spliced into Terra code: each
    becomes a literal that both backends take, spelled as valid C."""

    def test_splice_int64_min_compiles_and_runs(self, backend):
        # INT64_MIN as a bare C literal overflows long long (the grammar is
        # unary minus applied to 9223372036854775808LL); the emitter must
        # spell it (min+1) - 1
        lo = -(2 ** 63)
        low = terra("""
        terra low(y : int64) : int64
          if [lo] < y then return [lo] end
          return y
        end
        """).compile(backend)
        assert low(5) == lo and low(lo) == lo

    def test_splice_int32_min_compiles_and_runs(self, backend):
        lo = constant(int_, -(2 ** 31))
        low32 = terra("""
        terra low32(y : int) : int
          if lo < y then return lo end
          return y
        end
        """).compile(backend)
        assert low32(7) == -(2 ** 31)

    def test_splice_bool_as_zero_one(self, backend):
        for flag in (True, False):
            sel = terra("""
            terra sel(a : int, b : int) : int
              if [flag] then return a end
              return b
            end
            """).compile(backend)
            assert sel(10, 20) == (10 if flag else 20)

    @pytest.mark.parametrize("value,ty", [
        pytest.param(np.float32(1.5), float32, id="float32"),
        pytest.param(np.int64(2 ** 40), int64, id="int64"),
        pytest.param(np.uint8(7), int32, id="uint8"),
        pytest.param(np.bool_(True), bool_, id="bool_")])
    def test_splice_numpy_scalar(self, backend, value, ty):
        """A numpy scalar embeds as the constant its Python twin would,
        except that ``float32`` keeps its width; an integer takes the
        narrowest of int32/int64/uint64 by value, not its dtype."""
        f = terra("terra f() return [value] end")
        assert f.gettype().returntype is ty
        got = f.compile(backend)()
        assert got == value and type(got) is type(value.item())

    def test_emitted_c_spells_extreme_constants(self):
        from repro import get_backend
        c = get_backend("c")
        lo = -(2 ** 63)
        src = c.emit_source(terra("""
        terra low(y : int64) : int64
          if [lo] < y then return [lo] end
          return y
        end
        """))
        assert "-9223372036854775808" not in src
        assert "-9223372036854775807LL - 1" in src
        src = c.emit_source(terra("terra flagged() : bool return [True] end"))
        assert "True" not in src

    @pytest.mark.parametrize("ty,value", [
        pytest.param(ty, value, id=f"{ty.name}-{'min' if value < 0 else 'max'}")
        for ty, value in [
            (int8, -2 ** 7), (int16, -2 ** 15), (int32, -2 ** 31),
            (int64, -2 ** 63), (uint8, 2 ** 8 - 1), (uint16, 2 ** 16 - 1),
            (uint32, 2 ** 32 - 1), (uint64, 2 ** 64 - 1)]])
    def test_splice_integer_edge_round_trips(self, backend, ty, value):
        """Each width's edge value, spliced as a ``constant()``, is the
        same machine value coming back and in a comparison."""
        env = {"T": ty, "k": constant(ty, value)}
        edge = terra("terra edge() : T return k end", env=env)
        is_edge = terra("terra is_edge(y : T) : bool return y == k end",
                        env=env)
        assert edge.compile(backend)() == value
        assert is_edge.compile(backend)(value) is True
        assert is_edge.compile(backend)(0) is False

    @pytest.mark.parametrize("ty", [float32, float64], ids=["float", "double"])
    def test_splice_float_specials(self, backend, ty):
        """-0.0 keeps its sign, infinities and NaN are spelled as C
        builtins, on both backends."""
        for value in (-0.0, math.inf, -math.inf, math.nan):
            special = terra("terra special() : T return k end",
                            env={"T": ty, "k": constant(ty, value)})
            got = special.compile(backend)()
            if math.isnan(value):
                assert math.isnan(got)
            else:
                assert got == value
                assert math.copysign(1.0, got) == math.copysign(1.0, value)
