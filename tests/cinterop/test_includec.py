"""includec tests: known headers, the C declaration parser, both backends."""

import pytest

from repro import includec, terra
from repro.core import types as T
from repro.errors import TerraSyntaxError


class TestKnownHeaders:
    def test_stdlib(self):
        std = includec("stdlib.h")
        for name in ("malloc", "free", "calloc", "realloc", "rand", "srand"):
            assert name in std
        assert std.malloc.gettype().parameters == (T.uint64,)

    def test_string(self):
        s = includec("string.h")
        assert {"memset", "memcpy", "strlen", "strcmp"} <= set(s)

    def test_math(self):
        m = includec("math.h")
        assert m.sqrt.gettype().returns == (T.float64,)
        assert m.sqrtf.gettype().returns == (T.float32,)

    def test_stdio_varargs(self):
        stdio = includec("stdio.h")
        assert stdio.printf.gettype().varargs

    def test_externals_cached(self):
        a = includec("stdlib.h")
        b = includec("stdlib.h")
        assert a["malloc"] is b["malloc"]  # identity matters for linking


class TestDeclarationParser:
    def test_simple_function(self):
        ns = includec("double hypot(double x, double y);")
        assert ns.hypot.gettype().parameters == (T.float64, T.float64)

    def test_pointers_and_const(self):
        ns = includec("int puts2(const char *s);")
        assert ns.puts2.gettype().parameters == (T.pointer(T.int8),)

    def test_void_return(self):
        ns = includec("void do_nothing(int x);")
        assert ns.do_nothing.gettype().returns == ()

    def test_void_params(self):
        ns = includec("int get_value(void);")
        assert ns.get_value.gettype().parameters == ()

    def test_unsigned_long_long(self):
        ns = includec("unsigned long long mix(unsigned long long a);")
        assert ns.mix.gettype().parameters == (T.uint64,)

    def test_varargs(self):
        ns = includec("int log_it(const char *fmt, ...);")
        assert ns.log_it.gettype().varargs

    def test_opaque_struct(self):
        ns = includec("""
        struct ctx;
        struct ctx *ctx_new(void);
        void ctx_free(struct ctx *c);
        """)
        ptr = ns.ctx_new.gettype().returns[0]
        assert ptr.ispointer()
        assert isinstance(ptr.pointee, T.OpaqueType)
        # the same opaque identity across declarations
        assert ns.ctx_free.gettype().parameters[0] is ptr

    def test_include_line(self):
        ns = includec("""
        #include <stdlib.h>
        int extra(int x);
        """)
        assert "malloc" in ns and "extra" in ns

    def test_unknown_header(self):
        with pytest.raises(TerraSyntaxError, match="unknown header"):
            includec("#include <windows.h>")

    def test_stdint_types(self):
        ns = includec("uint64_t take(int32_t a, uint8_t b);")
        assert ns.take.gettype().parameters == (T.int32, T.uint8)
        assert ns.take.gettype().returns == (T.uint64,)

    def test_comments_stripped(self):
        ns = includec("""
        /* block comment */
        int f1(int a); // line comment
        """)
        assert "f1" in ns

    def test_garbage_rejected(self):
        with pytest.raises(TerraSyntaxError):
            includec("template <class T> T max(T a, T b);")


class TestUsingRealLibc:
    """Imported declarations bind to the real libc under the C backend."""

    def test_hypot(self, c_default):    # the interpreter has no hypot
        ns = includec("double hypot(double x, double y);")
        f = terra("terra f(a : double, b : double) : double "
                  "return ns.hypot(a, b) end", env={"ns": ns})
        assert f(3.0, 4.0) == 5.0

    def test_snprintf_roundtrip(self, backend):
        stdio = includec("stdio.h")
        std = includec("stdlib.h")
        strh = includec("string.h")
        f = terra("""
        terra f(x : int) : int64
          var buf = [&int8](std.malloc(64))
          stdio.snprintf(buf, 64, 'v=%d!', x)
          var n = [int64](strh.strlen(buf))
          std.free(buf)
          return n
        end
        """)
        assert f.compile(backend)(1234) == len("v=1234!")
