"""End-to-end execution tests, run on BOTH backends (differential).

Every test compiles through the ``backend`` fixture (gcc and the reference
interpreter), so any divergence between native semantics and the checked
interpreter is caught here.
"""

import numpy as np
import pytest

from repro import (bool_, constant, declare, global_, includec, pycallback,
                   struct, terra, functype, int_, float_, double, int64,
                   unit, pointer)
from repro.core import types as T
from repro.errors import FFIError
from repro.ffi.cdata import CPointer, CStruct

std = includec("stdlib.h")


def run(fn, backend, *args):
    return fn.compile(backend)(*args)


class TestArithmetic:
    def test_integer_ops(self, backend):
        f = terra("""
        terra f(a : int, b : int) : int
          return (a + b) * (a - b) / 2 % 17
        end
        """)
        for a, b in [(10, 3), (-5, 7), (100, 1)]:
            expected = ((a + b) * (a - b))
            expected = int(expected / 2) % 17 if expected >= 0 else \
                -((-int(expected / 2)) % 17) if int(expected/2) < 0 else int(expected/2) % 17
            # compute C semantics in Python directly:
            q = int((a + b) * (a - b) / 2)
            r = q - (q // 17) * 17 if (q < 0) == (17 < 0) or q % 17 == 0 else q % 17 - 17
            c_mod = q - int(q / 17) * 17
            assert run(f, backend, a, b) == c_mod

    def test_wraparound(self, backend):
        f = terra("terra f(x : int8) : int8 return x + 1 end")
        assert run(f, backend, 127) == -128

    def test_unsigned_wrap(self, backend):
        f = terra("terra f(x : uint32) : uint32 return x - 1 end")
        assert run(f, backend, 0) == 2**32 - 1

    def test_float32_precision(self, backend):
        f = terra("terra f(a : float, b : float) : float return a + b end")
        result = run(f, backend, 0.1, 0.2)
        assert result == np.float32(np.float32(0.1) + np.float32(0.2))

    def test_float32_literal_holds_its_float32_value(self, backend):
        fns = terra("""
        terra widened() : double return [double](0.1f) end
        terra same() : bool return 0.1f == [float](0.1) end
        terra returned() : float return 0.1f end
        """)
        assert run(fns.widened, backend) == float(np.float32(0.1))
        assert run(fns.same, backend) is True
        assert run(fns.returned, backend) == float(np.float32(0.1))

    def test_float32_constant_is_spelled_shortest(self):
        """The C spelling of a float32 constant is the shortest decimal
        that reads back as it: a literal as the source wrote it, a folded
        one as short."""
        f = terra("""
        terra f(x : float) : float
          return x * 0.1f + 2.62144f + ([float](64) - 1.001f)
        end
        """)
        src = f.get_c_source()
        for spelled in ("0.1f", "2.62144f", "62.999f"):
            assert f"({spelled})" in src, spelled
        assert "0.10000000149011612f" not in src

    def test_shift_ops(self, backend):
        f = terra("terra f(x : int, s : int) : int return (x << s) >> 2 end")
        assert run(f, backend, 3, 4) == (3 << 4) >> 2

    def test_unsigned_shift_logical(self, backend):
        f = terra("terra f(x : uint32) : uint32 return x >> 1 end")
        assert run(f, backend, 0x80000000) == 0x40000000

    def test_signed_shift_arithmetic(self, backend):
        f = terra("terra f(x : int32) : int32 return x >> 1 end")
        assert run(f, backend, -8) == -4

    def test_division_by_zero_float(self, backend):
        f = terra("terra f(x : double) : double return x / 0.0 end")
        assert run(f, backend, 1.0) == float("inf")


class TestControlFlow:
    def test_if_chain(self, backend):
        f = terra("""
        terra f(x : int) : int
          if x < 0 then return -1
          elseif x == 0 then return 0
          else return 1 end
        end
        """)
        assert [run(f, backend, v) for v in (-5, 0, 5)] == [-1, 0, 1]

    def test_while_break(self, backend):
        f = terra("""
        terra f(n : int) : int
          var i = 0
          while true do
            if i >= n then break end
            i = i + 1
          end
          return i
        end
        """)
        assert run(f, backend, 7) == 7

    def test_repeat(self, backend):
        f = terra("""
        terra f(n : int) : int
          var i = 0
          repeat i = i + 1 until i >= n
          return i
        end
        """)
        assert run(f, backend, 5) == 5
        assert run(f, backend, 0) == 1  # body runs at least once

    def test_for_negative_step(self, backend):
        f = terra("""
        terra f(n : int) : int
          var acc = 0
          for i = n, 0, -1 do acc = acc + i end
          return acc
        end
        """)
        assert run(f, backend, 5) == 5 + 4 + 3 + 2 + 1

    def test_for_dynamic_step(self, backend):
        f = terra("""
        terra f(lo : int, hi : int, s : int) : int
          var acc = 0
          for i = lo, hi, s do acc = acc + i end
          return acc
        end
        """)
        assert run(f, backend, 0, 10, 3) == 0 + 3 + 6 + 9
        assert run(f, backend, 10, 0, -4) == 10 + 6 + 2

    def test_nested_loop_break(self, backend):
        f = terra("""
        terra f() : int
          var hits = 0
          for i = 0, 3 do
            for j = 0, 10 do
              if j == 2 then break end
              hits = hits + 1
            end
          end
          return hits
        end
        """)
        assert run(f, backend) == 6


class TestMemoryAndPointers:
    def test_malloc_rw_free(self, backend):
        f = terra("""
        terra f(n : int) : int
          var p = [&int](std.malloc(n * 4))
          for i = 0, n do p[i] = i end
          var s = 0
          for i = 0, n do s = s + p[i] end
          std.free(p)
          return s
        end
        """)
        assert run(f, backend, 10) == 45

    def test_address_of_local(self, backend):
        f = terra("""
        terra f(x : int) : int
          var v = x
          var p = &v
          @p = @p + 1
          return v
        end
        """)
        assert run(f, backend, 10) == 11

    def test_array_value_semantics(self, backend):
        f = terra("""
        terra f() : int
          var a : int[4]
          for i = 0, 4 do a[i] = i end
          var b = a      -- copies the whole array
          b[0] = 100
          return a[0] * 1000 + b[0]
        end
        """)
        assert run(f, backend) == 100

    def test_struct_copy_semantics(self, backend):
        S = struct("struct CopyS { x : int }")
        f = terra("""
        terra f() : int
          var a = CopyS { 1 }
          var b = a
          b.x = 2
          return a.x * 10 + b.x
        end
        """, env={"CopyS": S})
        assert run(f, backend) == 12

    def test_pointer_into_struct(self, backend):
        S = struct("struct PtrS { a : int, b : int }")
        f = terra("""
        terra f() : int
          var s = PtrS { 1, 2 }
          var p = &s.b
          @p = 20
          return s.a + s.b
        end
        """, env={"PtrS": S})
        assert run(f, backend) == 21

    def test_string_constant(self, backend):
        strh = includec("string.h")
        f = terra("""
        terra f() : int64
          return [int64](strh.strlen('hello world'))
        end
        """, env={"strh": strh})
        assert run(f, backend) == 11


class TestFunctions:
    def test_recursion(self, backend):
        f = terra("""
        terra fact(n : int) : int64
          if n <= 1 then return 1 end
          return n * fact(n - 1)
        end
        """)
        assert run(f, backend, 10) == 3628800

    def test_mutual_recursion(self, backend):
        odd = declare("odd")
        even = terra("""
        terra even(n : int) : bool
          if n == 0 then return true end
          return odd(n - 1)
        end
        """, env={"odd": odd})
        terra("""
        terra odd(n : int) : bool
          if n == 0 then return false end
          return even(n - 1)
        end
        """, env={"odd": odd, "even": even})
        assert run(even, backend, 10) is True
        assert run(odd, backend, 10) is False

    def test_function_pointer(self, backend):
        f = terra("""
        terra add1(x : int) : int return x + 1 end
        terra mul2(x : int) : int return x * 2 end
        terra apply(fn : {int} -> int, x : int) : int
          return fn(x)
        end
        terra f(which : bool, x : int) : int
          var fn : {int} -> int = add1
          if not which then fn = mul2 end
          return apply(fn, x)
        end
        """)
        assert run(f.f, backend, True, 10) == 11
        assert run(f.f, backend, False, 10) == 20

    def test_function_pointer_to_a_struct_result(self, backend):
        """ctypes cannot make a C callback return a struct, so the
        interpreter calls such a pointer it took without one."""
        f = terra("""
        struct P { a : int, b : int }
        terra swap(p : P) : P return P { p.b, p.a } end
        terra f(x : int) : int
          var fn : {P} -> P = swap
          var q = fn(P { x, 2 })
          return q.a * 10 + q.b
        end
        """)
        assert run(f.f, backend, 7) == 27

    def test_python_callback(self, backend):
        log = []

        def observe(x):
            log.append(x)
            return x * 2

        cb = pycallback(functype([int_], int_), observe)
        f = terra("terra f(x : int) : int return cb(x) + 1 end",
                  env={"cb": cb})
        assert run(f, backend, 21) == 43
        assert log[-1] == 21

    @pytest.mark.filterwarnings(
        "ignore::pytest.PytestUnraisableExceptionWarning")
    def test_an_exception_in_a_callback_reaches_the_caller(self, backend,
                                                           request):
        if backend.name == "c":
            request.applymarker(pytest.mark.xfail(strict=True, reason=(
                "ctypes prints the exception and the C caller sees the "
                "callback return 0 (docs/LANGUAGE.md section 7)")))

        def boom(x):
            raise ValueError("boom")

        cb = pycallback(functype([int_], int_), boom)
        f = terra("terra f(x : int) : int return cb(x) + 1 end",
                  env={"cb": cb})
        with pytest.raises(ValueError, match="boom"):
            run(f, backend, 3)

    # a callback reads its arguments as a call's results read, on every
    # backend (repro.ffi.convert.callback_runner)
    def test_unit_returning_callback(self, backend):
        log = []
        cb = pycallback(functype([int_], unit), log.append)
        f = terra("terra f(x : int) : int cb(x) return x + 1 end",
                  env={"cb": cb})
        assert run(f, backend, 4) == 5
        assert log == [4]

    def test_struct_argument_reaches_a_callback_as_cdata(self, backend):
        S = struct("struct CbS { a : int, b : double }")
        seen = []

        def total(s):
            seen.append(s)
            return s.a + s.b

        cb = pycallback(functype([S], double), total)
        f = terra("terra f(a : int) : double return cb(CbS { a, 0.5 }) end",
                  env={"cb": cb, "CbS": S})
        assert run(f, backend, 3) == 3.5
        assert isinstance(seen[0], CStruct) and seen[0].type is S

    def test_pointer_argument_and_result_of_a_callback(self, backend):
        seen = []

        def advance(p):
            seen.append(p)
            return p.address + 4        # the next int32

        cb = pycallback(functype([pointer(int_)], pointer(int_)), advance)
        f = terra("terra f(p : &int) : int return @cb(p) end",
                  env={"cb": cb})
        assert run(f, backend, np.array([5, 6], np.int32)) == 6
        assert isinstance(seen[0], CPointer)
        assert seen[0].type == pointer(int_)

    def test_bool_and_float_arguments_of_a_callback(self, backend):
        seen = []

        def signed(on, x):
            seen.append((on, x))
            return x if on else -x

        cb = pycallback(functype([bool_, float_], double), signed)
        f = terra("terra f(on : bool, x : float) : double "
                  "return cb(on, x) end", env={"cb": cb})
        assert run(f, backend, True, 0.1) == float(np.float32(0.1))
        assert run(f, backend, False, 2.0) == -2.0
        assert seen[0][0] is True and seen[1][0] is False
        assert seen[0][1] == float(np.float32(0.1))

    def test_an_aggregate_returning_callback_is_refused_when_declared(
            self, backend):
        """Refused by ``pycallback`` itself, so a function that calls it
        only on a branch it never takes builds on no backend."""
        P = struct("struct CbP { a : int }")
        with pytest.raises(FFIError, match="Python callbacks cannot return "
                                           "aggregates by value"):
            cb = pycallback(functype([], P), lambda: {"a": 1})
            f = terra("""
            terra f(x : int) : int
              if x > 100 then var p = cb() return p.a end
              return x
            end
            """, env={"cb": cb})
            run(f, backend, 1)

    def test_tuple_return_to_python(self, backend):
        f = terra("terra f() : {int, double} return 3, 2.5 end")
        assert run(f, backend) == (3, 2.5)


class TestGlobals:
    def test_global_counter(self, backend):
        g = global_(T.int32, 0, "counter")
        f = terra("""
        terra f() : int
          g = g + 1
          return g
        end
        """, env={"g": g})
        h = f.compile(backend)
        assert h() == 1
        assert h() == 2
        assert g.get() == 2

    def test_global_set_from_python(self, backend):
        g = global_(T.float64, 1.5, "setme")
        f = terra("terra f() : double return g * 2.0 end", env={"g": g})
        h = f.compile(backend)
        assert h() == 3.0
        g.set(10.0)
        assert h() == 20.0

    def test_constant_embedding(self, backend):
        c = constant(T.int64, 1 << 40)
        f = terra("terra f() : int64 return [c] + 1 end")
        assert run(f, backend) == (1 << 40) + 1


class TestNumpyInterop:
    def test_write_through_pointer(self, backend):
        f = terra("""
        terra f(p : &double, n : int) : {}
          for i = 0, n do p[i] = [double](i) * 1.5 end
        end
        """)
        buf = np.zeros(6)
        run(f, backend, buf, 6)
        assert list(buf) == [0.0, 1.5, 3.0, 4.5, 6.0, 7.5]

    def test_dtype_mismatch_rejected(self, backend):
        from repro.errors import FFIError
        f = terra("terra f(p : &double) : double return p[0] end")
        with pytest.raises(FFIError, match="dtype"):
            run(f, backend, np.zeros(4, dtype=np.float32))

    def test_one_array_through_two_pointers(self, backend):
        """A write through ``p`` is read through ``q`` when both are the
        same array, as in C's flat address space."""
        f = terra("""
        terra f(p : &int, q : &int, n : int) : {}
          for i = 0, n - 1 do p[i] = q[i + 1] * 2 + p[i] end
        end
        """)
        buf = np.arange(8, dtype=np.int32)
        run(f, backend, buf, buf, 8)
        assert buf.tolist() == [3 * i + 2 for i in range(7)] + [7]

    def test_overlapping_views(self, backend):
        """Two views one element apart: each store feeds the next load,
        so the value carries down the whole array."""
        f = terra("""
        terra f(dst : &double, src : &double, n : int) : {}
          for i = 0, n do dst[i] = src[i] + 1.0 end
        end
        """)
        buf = np.zeros(9)
        run(f, backend, buf[1:], buf[:-1], 8)
        assert buf.tolist() == [float(i) for i in range(9)]


class TestBackendAgreement:
    """Differential: identical results from gcc and the interpreter."""

    PROGRAMS = [
        ("terra p(x : int) : int return (x * 37 + 11) % 256 - 128 end",
         [(0,), (255,), (-1000,), (2**31 - 1,)]),
        ("terra p(x : double) : double return x * x - 1.0 / (x + 2.0) end",
         [(0.5,), (-1.5,), (1e10,)]),
        ("""terra p(x : int) : int
              var acc = 0
              for i = 0, x do
                if i % 3 == 0 then acc = acc + i
                else acc = acc - 1 end
              end
              return acc
            end""",
         [(0,), (10,), (100,)]),
        ("""terra p(x : int8) : int8
              return (x << 3) + (x >> 1) ^ 0x55
            end""",
         [(0,), (127,), (-128,), (42,)]),
    ]

    @pytest.mark.parametrize("source,argsets", PROGRAMS)
    def test_agreement(self, source, argsets, cbackend):
        from repro import get_backend
        f = terra(source)
        hc = f.compile(cbackend)
        hi = f.compile(get_backend("interp"))
        for args in argsets:
            assert hc(*args) == hi(*args), args

    #: loops with invariant subexpressions: gcc -O3 hoists them out of the
    #: C loop, the interpreter evaluates them where they stand, and both
    #: give the expected value — including where hoisting would be wrong
    #: (a value the loop mutates, a divide a zero-trip loop never runs, a
    #: call, a variable whose address escapes)
    LOOP_PROGRAMS = [
        pytest.param("""
        terra f(a : int, b : int, n : int) : int
          var acc = 0
          for i = 0, n do acc = acc + a * b + i end
          return acc
        end""", [((3, 7, 4), 90), ((3, 7, 0), 0)], id="invariant_multiply"),
        pytest.param("""
        terra f(a : int, n : int) : int
          var acc = 0
          for i = 0, n do
            for j = 0, n do acc = acc + a * 13 end
          end
          return acc
        end""", [((2, 3), 234), ((-5, 4), -1040)], id="nested_loops"),
        pytest.param("""
        terra f(n : int) : int
          var acc = 0
          for i = 0, n do acc = acc + i * 3 end
          return acc
        end""", [((5,), 30), ((0,), 0)], id="loop_var_dependent"),
        pytest.param("""
        terra f(a : int, n : int) : int
          var acc = 0
          for i = 0, n do
            a = a + 1
            acc = acc + a * 2
          end
          return acc
        end""", [((1, 3), 18), ((10, 2), 46)], id="mutated_in_loop"),
        pytest.param("""
        terra f(a : int, b : int, n : int) : int
          var acc = 0
          for i = 0, n do acc = acc + a / b end
          return acc
        end""", [((1, 0, 0), 0), ((7, 2, 3), 9), ((-7, 2, 2), -6)],
            id="zero_trip_divide"),
        pytest.param("""
        terra f(a : int, b : int, n : int) : int
          var acc = 0
          for i = 0, n do
            if b ~= 0 then acc = acc + a / b end
          end
          return acc
        end""", [((5, 0, 3), 0), ((5, 2, 3), 6)], id="guarded_divide"),
        pytest.param("""
        terra g(x : int) : int return x + 1 end
        terra f(a : int, n : int) : int
          var acc = 0
          for i = 0, n do acc = acc + g(a) end
          return acc
        end""", [((4, 3), 15), ((4, 0), 0)], id="call_in_loop"),
        pytest.param("""
        terra bump(p : &int) : int p[0] = p[0] + 1 return 0 end
        terra f(a : int, n : int) : int
          var acc = 0
          for i = 0, n do
            var t = bump(&a)
            acc = acc + t + a * 2
          end
          return acc
        end""", [((1, 3), 18), ((0, 1), 2)], id="address_taken"),
        pytest.param("""
        terra f(a : int, b : int, n : int) : int
          var acc = 0
          for i = 0, n do acc = acc + a * b + a * b end
          return acc
        end""", [((2, 5, 3), 60)], id="repeated_subexpression"),
        pytest.param("""
        terra f(a : int, b : int) : int
          var acc = 0
          var i = 0
          while i < b do
            acc = acc + a * 3
            i = i + 1
          end
          repeat
            acc = acc + a * 5
            i = i - 1
          until i == 0
          return acc
        end""", [((2, 4), 64), ((3, 1), 24)], id="while_and_repeat"),
        pytest.param("""
        terra f(x : double, n : int) : double
          var acc = 0.0
          for i = 0, n do acc = acc + (x * 0.1 + 1.0) end
          return acc
        end""", [((0.3, 5), 5 * (0.3 * 0.1 + 1.0)), ((-2.5, 0), 0.0)],
            id="float_invariant"),
    ]

    @pytest.mark.parametrize("source,cases", LOOP_PROGRAMS)
    def test_loop_invariants(self, source, cases, cbackend):
        staged = terra(source, env={})
        fn = staged["f"] if isinstance(staged, dict) else staged
        hc, hi = fn.compile(cbackend), fn.compile("interp")
        for args, expected in cases:
            if isinstance(expected, float):     # summed in loop order
                expected = 0.0
                for _ in range(args[1]):
                    expected += args[0] * 0.1 + 1.0
            assert hc(*args) == hi(*args) == expected, args

    def test_load_aliased_by_a_store_in_the_loop(self, cbackend):
        """``p[0]`` looks loop invariant, but the store through ``q`` may
        write it: with ``p`` and ``q`` one array, each iteration reads
        the value the last one stored."""
        src = """
        terra f(p : &int, q : &int, n : int) : int
          var acc = 0
          for i = 0, n do
            q[0] = q[0] + 1
            acc = acc + p[0] * 2
          end
          return acc
        end
        """
        fn = terra(src, env={})
        results = []
        for handle in (fn.compile(cbackend), fn.compile("interp")):
            buf = np.zeros(1, dtype=np.int32)
            results.append((handle(buf, buf, 4), buf.tolist()))
        assert results == [(2 * (1 + 2 + 3 + 4), [4])] * 2

    def test_differential_gemm_kernel(self, cbackend):
        """A blocked-GEMM-shaped kernel, whose index arithmetic is loop
        invariant, computes the same on both backends."""
        src = """
        terra kernel(C : &double, A : &double, B : &double, n : int) : {}
          for i = 0, n do
            for j = 0, n do
              var sum = 0.0
              for k = 0, n do
                sum = sum + A[i * n + k] * B[k * n + j]
              end
              C[i * n + j] = sum
            end
          end
        end
        """
        n = 8
        rng = np.random.RandomState(7)
        A = rng.rand(n, n)
        B = rng.rand(n, n)
        fn = terra(src, env={})
        C = np.zeros((n, n))
        fn.compile(cbackend)(C, A, B, n)
        assert np.allclose(C, A @ B)
        C2 = np.zeros((n, n))
        fn.compile("interp")(C2, A, B, n)
        assert np.array_equal(C2, C)


class TestSignednessSemantics:
    """C's usual-arithmetic-conversion corner cases, identical on both
    backends (int vs uint comparisons convert to unsigned, like C)."""

    def test_minus_one_greater_than_unsigned_zero(self, backend):
        f = terra("""
        terra f(a : int32, b : uint32) : bool
          return a > b     -- -1 converts to 0xFFFFFFFF
        end
        """)
        assert run(f, backend, -1, 0) is True

    def test_unsigned_division(self, backend):
        f = terra("""
        terra f(a : uint32, b : uint32) : uint32
          return a / b
        end
        """)
        assert run(f, backend, 2**32 - 2, 2) == (2**32 - 2) // 2

    def test_unsigned_modulo(self, backend):
        f = terra("terra f(a : uint32) : uint32 return a % 10 end")
        assert run(f, backend, 2**32 - 1) == (2**32 - 1) % 10

    def test_mixed_width_promotion(self, backend):
        f = terra("""
        terra f(a : int8, b : int32) : int32
          return a * b    -- int8 promotes to int32 before multiply
        end
        """)
        assert run(f, backend, 100, 1000) == 100000

    def test_uint64_wraparound_sum(self, backend):
        f = terra("""
        terra f(a : uint64) : uint64
          return a + a
        end
        """)
        big = 2**63 + 5
        assert run(f, backend, big) == (2 * big) % 2**64
