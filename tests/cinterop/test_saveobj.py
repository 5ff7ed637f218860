"""saveobj tests: ahead-of-time output (.c/.h/.o/.so) that runs without
the meta-language — the paper's §2/§6.1 deployment story."""

import ctypes
import os
import subprocess

import pytest

from repro import saveobj, terra
from repro.buildd.toolchain import find_cc
from repro.errors import CompileError


@pytest.fixture
def addmul():
    return terra("""
    terra helper(x : int) : int return x * 2 end
    terra addmul(a : int, b : int) : int
      return helper(a) + b
    end
    """)


class TestSaveObj:
    def test_save_c_source(self, addmul, tmp_path):
        path = str(tmp_path / "out.c")
        saveobj(path, {"addmul": addmul.addmul})
        text = open(path).read()
        assert "int32_t addmul(int32_t a0, int32_t a1)" in text
        # the helper is in the emitted unit too (connected component)
        assert "helper" in text

    def test_save_header(self, addmul, tmp_path):
        path = str(tmp_path / "out.h")
        saveobj(path, {"addmul": addmul.addmul})
        assert "int32_t addmul(int32_t, int32_t);" in open(path).read()

    def test_save_shared_and_load(self, addmul, tmp_path, cbackend):
        path = str(tmp_path / "libout.so")
        saveobj(path, {"addmul": addmul.addmul})
        lib = ctypes.CDLL(path)
        lib.addmul.restype = ctypes.c_int32
        assert lib.addmul(10, 1) == 21

    def test_saved_unit_means_what_the_jit_means(self, tmp_path, cbackend):
        """``saveobj`` compiles with the JIT's semantic flags: under
        ``-fwrapv`` ``a + 1 > a`` wraps at ``INT32_MAX`` in both."""
        fn = terra("terra f(a : int32) : bool return a + 1 > a end")
        path = str(tmp_path / "libwrap.so")
        saveobj(path, {"f": fn})
        lib = ctypes.CDLL(path)
        lib.f.restype = ctypes.c_uint8
        assert fn.compile(cbackend)(2 ** 31 - 1) is False
        assert lib.f(2 ** 31 - 1) == 0

    def test_save_object_links_against_c(self, addmul, tmp_path, cbackend):
        """The paper: 'we can save the Terra function to a .o file which
        can be linked to a normal C executable'."""
        obj = str(tmp_path / "out.o")
        saveobj(obj, {"addmul": addmul.addmul})
        main_c = tmp_path / "main.c"
        main_c.write_text("""
        #include <stdio.h>
        #include <stdint.h>
        int32_t addmul(int32_t, int32_t);
        int main(void) { printf("%d\\n", addmul(20, 2)); return 0; }
        """)
        exe = str(tmp_path / "main")
        subprocess.run([find_cc(), str(main_c), obj, "-o", exe], check=True)
        out = subprocess.run([exe], capture_output=True, text=True)
        assert out.stdout.strip() == "42"

    def test_bad_extension(self, addmul, tmp_path):
        with pytest.raises(CompileError, match="extension"):
            saveobj(str(tmp_path / "out.wasm"), {"f": addmul.addmul})

    def test_non_function_rejected(self, tmp_path):
        with pytest.raises(CompileError):
            saveobj(str(tmp_path / "out.c"), {"f": 42})

    def test_multiple_exports(self, tmp_path, cbackend):
        fns = terra("""
        terra inc(x : int) : int return x + 1 end
        terra dec(x : int) : int return x - 1 end
        """)
        path = str(tmp_path / "multi.so")
        saveobj(path, {"inc": fns.inc, "dec": fns.dec})
        lib = ctypes.CDLL(path)
        assert lib.inc(1) == 2 and lib.dec(1) == 0


class TestFreestanding:
    def test_globals_become_c_globals(self, tmp_path, cbackend):
        """Saved objects must not reference the Python process: Terra
        globals are emitted as real C globals with their initializers."""
        import ctypes
        from repro import global_, terra
        from repro.core import types as T
        g = global_(T.int32, 100, "persistent")
        fn = terra("""
        terra bump() : int
          g = g + 1
          return g
        end
        """, env={"g": g})
        path = str(tmp_path / "withglobal.so")
        saveobj(path, {"bump": fn})
        lib = ctypes.CDLL(path)
        lib.bump.restype = ctypes.c_int32
        assert lib.bump() == 101
        assert lib.bump() == 102  # state lives in the .so, not in Python
        # and no absolute process addresses leak into the source
        src_path = str(tmp_path / "withglobal.c")
        saveobj(src_path, {"bump": fn})
        assert "0x7f" not in open(src_path).read().lower()

    def test_aggregate_global_initializer(self, tmp_path, cbackend):
        import ctypes
        from repro import global_, terra
        from repro.core import types as T
        g = global_(T.array(T.int32, 4), [10, 20, 30, 40], "table4")
        fn = terra("""
        terra total() : int
          var s = 0
          for i = 0, 4 do s = s + g[i] end
          return s
        end
        """, env={"g": g})
        path = str(tmp_path / "agg.so")
        saveobj(path, {"total": fn})
        lib = ctypes.CDLL(path)
        lib.total.restype = ctypes.c_int32
        assert lib.total() == 100

    def test_callbacks_rejected(self, tmp_path):
        from repro import functype, int_, pycallback, terra
        cb = pycallback(functype([int_], int_), lambda x: x)
        fn = terra("terra f(x : int) : int return cb(x) end", env={"cb": cb})
        with pytest.raises(CompileError, match="callback"):
            saveobj(str(tmp_path / "cb.c"), {"f": fn})
