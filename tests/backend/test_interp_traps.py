"""Interpreter trap tests: the checked memory model turns C undefined
behaviour into :class:`TrapError` — the point of the reference backend."""

import pytest

from repro import includec, terra
from repro.errors import TrapError

std = includec("stdlib.h")


def interp(fn):
    return fn.compile("interp")


class TestMemoryTraps:
    def test_null_deref(self):
        f = terra("""
        terra f() : int
          var p : &int = nil
          return @p
        end
        """)
        with pytest.raises(TrapError, match="NULL"):
            interp(f)()

    def test_out_of_bounds_heap(self):
        f = terra("""
        terra f() : int
          var p = [&int](std.malloc(4 * 4))
          var v = p[10]
          std.free(p)
          return v
        end
        """)
        with pytest.raises(TrapError, match="overrun|unmapped"):
            interp(f)()

    def test_use_after_free(self):
        f = terra("""
        terra f() : int
          var p = [&int](std.malloc(16))
          p[0] = 5
          std.free(p)
          return p[0]
        end
        """)
        with pytest.raises(TrapError, match="freed"):
            interp(f)()

    def test_double_free(self):
        f = terra("""
        terra f() : {}
          var p = std.malloc(16)
          std.free(p)
          std.free(p)
        end
        """)
        with pytest.raises(TrapError, match="double free|freed"):
            interp(f)()

    def test_dangling_stack_pointer(self):
        f = terra("""
        terra inner() : &int
          var local_var = 5
          return &local_var
        end
        terra f() : int
          return @inner()
        end
        """)
        with pytest.raises(TrapError, match="freed"):
            interp(f.f)()

    def test_array_index_oob(self):
        f = terra("""
        terra f(i : int) : int
          var a : int[4]
          a[0] = 1
          return a[i]
        end
        """)
        assert interp(f)(0) == 1
        with pytest.raises(TrapError, match="out of bounds"):
            interp(f)(9)


    def test_call_through_a_wild_function_pointer(self):
        """An address that is no code the process loaded or made traps
        instead of being called."""
        f = terra("terra f(a : int) : int "
                  "return [{int}->int](0x12345678)(a) end")
        with pytest.raises(TrapError, match="invalid function pointer"):
            interp(f)(1)


class TestLibcChecks:
    """The interpreter checks the memory a C library call reads and writes
    before it makes the call."""

    def test_memcpy_past_a_block(self):
        strh = includec("string.h")
        f = terra("""
        terra f() : int
          var a : int8[4]
          var b : int8[8]
          strh.memcpy(&a[0], &b[0], 8)
          return a[0]
        end
        """, env={"strh": strh})
        with pytest.raises(TrapError, match="overruns"):
            interp(f)()

    def test_a_file_fopen_did_not_return(self):
        stdio = includec("stdio.h")
        f = terra("""
        terra f() : int
          return stdio.fgetc([FILEP](std.malloc(64)))
        end
        """, env={"stdio": stdio, "std": std,
                  "FILEP": stdio.fopen.external_type.returntype})
        with pytest.raises(TrapError, match="invalid FILE"):
            interp(f)()


class TestArithmeticTraps:
    def test_integer_div_by_zero(self):
        f = terra("terra f(a : int, b : int) : int return a / b end")
        with pytest.raises(TrapError, match="division by zero"):
            interp(f)(1, 0)

    def test_integer_mod_by_zero(self):
        f = terra("terra f(a : int, b : int) : int return a % b end")
        with pytest.raises(TrapError, match="modulo by zero"):
            interp(f)(1, 0)


class TestLibcTraps:
    def test_abort(self):
        f = terra("terra f() : {} std.abort() end")
        with pytest.raises(TrapError, match="abort"):
            interp(f)()

    def test_missing_return(self):
        f = terra("""
        terra f(x : int) : int
          if x > 0 then return 1 end
        end
        """)
        assert interp(f)(1) == 1
        with pytest.raises(TrapError, match="without returning"):
            interp(f)(-1)

    def test_call_depth_guard(self):
        f = terra("""
        terra f(n : int) : int
          if n == 0 then return 0 end
          return f(n - 1)
        end
        """)
        with pytest.raises(TrapError, match="depth"):
            interp(f)(100000)

    def test_stack_overflow_guard(self):
        """Locals live on one fixed-size stack: a frame that would not fit
        traps as a call too deep does, and the stack is whole after."""
        f = terra("""
        terra f(i : int) : int8
          var big : int8[100000000]
          big[i] = 1
          return big[i]
        end
        """)
        with pytest.raises(TrapError, match="stack overflow"):
            interp(f)(0)
        g = terra("terra g(a : int) : int var b = a + 1 return b end")
        assert interp(g)(1) == 2
