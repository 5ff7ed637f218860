"""The built-in C library on both backends: one row per builtin, printf
output compared at the file descriptor, and the interpreter's checks."""

import ctypes
import math
import os
import signal
import subprocess
import sys

import numpy as np
import pytest

import repro
from repro import global_, includec, terra
from repro.cinterop.libc import header_table
from repro.errors import TrapError

std = includec("stdlib.h")
stdio = includec("stdio.h")
strh = includec("string.h")
mathh = includec("math.h")
LIBC = ctypes.CDLL(None)


def flushed(capfd) -> str:
    """What reached file descriptor 1 since the last read, stdio's buffer
    included."""
    LIBC.fflush(None)
    return capfd.readouterr().out


def available_backends():
    from repro.buildd import toolchain
    return ["interp", "c"] if toolchain.cc_available() else ["interp"]


class TestPrintf:
    """``printf`` is the process's stdio on both backends: the bytes at the
    file descriptor are the same."""

    def printed(self, capfd, fmt, *terra_args_source):
        args = "".join(", " + a for a in terra_args_source)
        f = terra(f"""
        terra f() : {{}}
          stdio.printf('{fmt}'{args})
        end
        """, env={"stdio": stdio})
        flushed(capfd)
        out = {}
        for name in available_backends():
            f.compile(name)()
            out[name] = flushed(capfd)
        assert len(set(out.values())) == 1, out
        return out["interp"]

    def test_int(self, capfd):
        assert self.printed(capfd, "%d|%05d|%x", "42", "7", "255") \
            == "42|00007|ff"

    def test_float(self, capfd):
        assert self.printed(capfd, "%.2f|%g", "3.14159", "0.5") == "3.14|0.5"

    def test_string_and_char(self, capfd):
        assert self.printed(capfd, "%s=%c", "'abc'", "65") == "abc=A"

    def test_percent_literal(self, capfd):
        assert self.printed(capfd, "100%%") == "100%"

    def test_long_modifier(self, capfd):
        assert self.printed(capfd, "%ld", "[int64](1) << 40") == str(1 << 40)

    def test_unsigned_conversions_of_a_negative_int(self, capfd):
        """An ``int`` argument is 32 bits wide on both backends."""
        assert self.printed(capfd, "%u|%x|%o", "-1", "-1", "-1") \
            == "4294967295|ffffffff|37777777777"

    def test_star_width_and_precision(self, capfd):
        assert self.printed(capfd, "[%*d|%-*.*s]", "5", "42", "6", "2",
                            "'xyz'") == "[   42|xy    ]"

    def test_snprintf_truncates(self, backend):
        """The result is the length the format wanted; ``size - 1`` bytes
        and a NUL are written, and nothing past them."""
        f = terra("""
        terra f(out : &int8) : int
          return stdio.snprintf(out, 5, '%d-%s', 12345, 'abc')
        end
        """, env={"stdio": stdio})
        out = np.full(8, 0x7F, dtype=np.int8)
        assert f.compile(backend)(out) == 9
        assert out.tobytes() == b"1234\x00\x7f\x7f\x7f"

    @pytest.mark.parametrize("body", [
        "var n : int stdio.printf('ab%n', &n)",
        "var b : int8[2] b[0] = 65 b[1] = 66 stdio.printf('%s', &b[0])",
        "stdio.printf('%d %d', 1)",
        "var b : int8[4] stdio.snprintf(&b[0], 8, 'abcdefgh')",
    ], ids=["percent-n", "unterminated-s", "too-few-arguments",
            "snprintf-overrun"])
    def test_traps_on_the_interpreter(self, body):
        """``%n`` stores through its argument, so it traps; the others
        read or write memory the call was not given."""
        f = terra(f"terra f() : {{}} {body} end", env={"stdio": stdio})
        with pytest.raises(TrapError):
            f.compile("interp")()


#: every builtin but ``exit`` and ``abort`` (:class:`TestProcessEnd`) ->
#: (the body of ``terra f(path : rawstring) : double``, its result or a
#: predicate on it, what it prints)
ROWS = {
    "malloc": ("var p = [&int64](std.malloc(16)) p[1] = 7 var r = p[1] "
               "std.free(p) return r", 7, ""),
    "calloc": ("var p = [&int64](std.calloc(4, 8)) var r = p[3] std.free(p) "
               "return r", 0, ""),
    "realloc": ("var p = [&int64](std.malloc(8)) p[0] = 9 "
                "p = [&int64](std.realloc(p, 64)) p[7] = 1 "
                "var r = p[0] + p[7] std.free(p) return r", 10, ""),
    "free": ("std.free(std.malloc(8)) std.free(nil) return 1", 1, ""),
    "srand": ("std.srand(7) var a = std.rand() std.srand(7) "
              "return a - std.rand()", 0, ""),
    "rand": ("std.srand(7) return std.rand()", lambda r: 0 <= r < 2**31, ""),
    "atoi": ("return std.atoi('-42')", -42, ""),
    "memset": ("var b : int8[4] strh.memset(&b[0], 65, 4) return b[3]",
               65, ""),
    "memcpy": ("var a : int32[2] var b : int32[2] a[0] = 3 a[1] = 4 "
               "strh.memcpy(&b[0], &a[0], 8) return b[0] * 10 + b[1]",
               34, ""),
    "memmove": ("var b : int8[8] strh.strcpy(&b[0], 'abcdef') "
                "strh.memmove(&b[1], &b[0], 5) return b[3]", ord("c"), ""),
    "memcmp": ("return strh.memcmp('abc', 'abd', 3)", lambda r: r < 0, ""),
    "strlen": ("return strh.strlen('hello')", 5, ""),
    "strcmp": ("return strh.strcmp('abc', 'abc')", 0, ""),
    "strcpy": ("var b : int8[8] strh.strcpy(&b[0], 'hi') return b[1]",
               ord("i"), ""),
    "printf": ("return stdio.printf('%d|%s|%u\\n', 5, 'x', -2)", 15,
               "5|x|4294967294\n"),
    "snprintf": ("var b : int8[4] var n = stdio.snprintf(&b[0], 4, '%d', "
                 "123456) stdio.puts(&b[0]) return n", 6, "123\n"),
    "puts": ("return stdio.puts('hi')", lambda r: r >= 0, "hi\n"),
    "putchar": ("return stdio.putchar(65)", 65, "A"),
    "fopen": ("var fh = stdio.fopen(path, 'wb') var ok = fh ~= nil "
              "stdio.fclose(fh) return [int](ok)", 1, ""),
    "fclose": ("return stdio.fclose(stdio.fopen(path, 'wb'))", 0, ""),
    "fwrite": ("var fh = stdio.fopen(path, 'wb') "
               "var r = stdio.fwrite('abcd', 1, 4, fh) stdio.fclose(fh) "
               "return r", 4, ""),
    "fread": ("var fh = stdio.fopen(path, 'w+b') "
              "stdio.fwrite('abcd', 1, 4, fh) stdio.fseek(fh, 0, 0) "
              "var b : int8[4] var r = stdio.fread(&b[0], 1, 4, fh) "
              "stdio.fclose(fh) return r * 1000 + b[3]", 4100, ""),
    "fseek": ("var fh = stdio.fopen(path, 'w+b') "
              "stdio.fwrite('abcd', 1, 4, fh) var r = stdio.fseek(fh, 1, 0) "
              "var c = stdio.fgetc(fh) stdio.fclose(fh) return r * 1000 + c",
              ord("b"), ""),
    "ftell": ("var fh = stdio.fopen(path, 'wb') "
              "stdio.fwrite('abc', 1, 3, fh) var r = stdio.ftell(fh) "
              "stdio.fclose(fh) return r", 3, ""),
    "fgetc": ("var fh = stdio.fopen(path, 'w+b') stdio.fputc(90, fh) "
              "stdio.fseek(fh, 0, 0) var c = stdio.fgetc(fh) "
              "var e = stdio.fgetc(fh) stdio.fclose(fh) return c * 1000 + e",
              ord("Z") * 1000 - 1, ""),
    "fputc": ("var fh = stdio.fopen(path, 'wb') var r = stdio.fputc(90, fh) "
              "stdio.fclose(fh) return r", ord("Z"), ""),
    "clock": ("return timeh.clock()", lambda r: r >= 0, ""),
}
_PY_MATH = {"fmin": min, "fmax": max}
for _name, _fn in header_table("math.h").items():
    _base, _suffix = (_name[:-1], "f") if _name.endswith("f") else (_name, "")
    _args = (0.5, 1.5)[:len(_fn.external_type.parameters)]
    _want = (_PY_MATH.get(_base) or getattr(math, _base))(*_args)
    ROWS[_name] = (
        f"return mathh.{_name}({', '.join(f'{a}{_suffix}' for a in _args)})",
        pytest.approx(_want, rel=1e-6), "")


class TestEveryBuiltin:
    """One row per builtin, run on both backends."""

    def test_every_builtin_has_a_row(self):
        from repro.backend.interp.builtins import BUILTINS
        assert set(BUILTINS) == set(ROWS) | {"exit", "abort"}

    @pytest.mark.parametrize("name", sorted(ROWS))
    def test_row(self, name, backend, capfd, tmp_path):
        body, want, printed = ROWS[name]
        f = terra(f"terra f(path : rawstring) : double {body} end",
                  env={"std": std, "stdio": stdio, "strh": strh,
                       "mathh": mathh, "timeh": includec("time.h")})
        flushed(capfd)
        got = f.compile(backend)(str(tmp_path / "row.bin"))
        assert want(got) if callable(want) else got == want
        assert flushed(capfd) == printed


#: a child that prints through stdio, then calls ``std.<argv[2]>``
ENDER = """
import sys
from repro import includec, terra
f = terra("terra f() : {} stdio.printf('bye %d\\\\n', 7) std." + sys.argv[2]
          + " end", env={"stdio": includec("stdio.h"),
                         "std": includec("stdlib.h")})
f.compile(sys.argv[1])()
print("not reached")
"""


def run_ender(backend, call, tmp_path):
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ, REPRO_TERRA_CACHE=str(tmp_path / "cache"),
               PYTHONPATH=os.pathsep.join(
                   [src] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    return subprocess.run([sys.executable, "-c", ENDER, backend.name, call],
                          env=env, capture_output=True, text=True,
                          timeout=120)


class TestProcessEnd:
    """``exit`` is the C library's on both backends: stdio is flushed and
    the process ends with the status.  ``abort`` is the interpreter's
    checked fault (``test_interp_traps.py``), and ``SIGABRT`` on C."""

    def test_exit_flushes_and_ends_the_process(self, backend, tmp_path):
        done = run_ender(backend, "exit(3)", tmp_path)
        assert (done.returncode, done.stdout) == (3, "bye 7\n"), done.stderr

    def test_abort_is_sigabrt_on_c(self, cbackend, tmp_path):
        done = run_ender(cbackend, "abort()", tmp_path)
        assert done.returncode == -signal.SIGABRT, done.stderr
        assert "not reached" not in done.stdout


class TestStrings:
    def test_strcmp(self, backend):
        f = terra("""
        terra f() : int
          return strh.strcmp('abc', 'abc')
        end
        """, env={"strh": strh})
        assert f.compile(backend)() == 0

    def test_strcpy_strlen(self, backend):
        f = terra("""
        terra f() : int64
          var buf = [&int8](std.malloc(32))
          strh.strcpy(buf, 'hello')
          var n = [int64](strh.strlen(buf))
          std.free(buf)
          return n
        end
        """, env={"strh": strh, "std": std})
        assert f.compile(backend)() == 5

    def test_strlen_of_a_string_longer_than_a_mib(self, backend):
        f = terra("""
        terra f() : int64
          var n = 2 * 1024 * 1024
          var buf = [&int8](std.malloc(n + 1))
          strh.memset(buf, 65, n)
          buf[n] = 0
          var len = [int64](strh.strlen(buf))
          std.free(buf)
          return len
        end
        """, env={"strh": strh, "std": std})
        assert f.compile(backend)() == 2097152

    def test_memcmp_memcpy(self, backend):
        f = terra("""
        terra f() : int
          var a = [&int8](std.malloc(8))
          var b = [&int8](std.malloc(8))
          strh.strcpy(a, 'passed!')
          strh.memcpy(b, a, 8)
          var r = strh.memcmp(a, b, 8)
          std.free(a) std.free(b)
          return r
        end
        """, env={"strh": strh, "std": std})
        assert f.compile(backend)() == 0


class TestFiles:
    def test_write_read_roundtrip(self, backend, tmp_path):
        path = str(tmp_path / f"io_{backend.name}.bin")
        f = terra("""
        terra wr(path : rawstring) : bool
          var fh = stdio.fopen(path, 'wb')
          if fh == nil then return false end
          var data : int32[4]
          for i = 0, 4 do data[i] = i * 11 end
          stdio.fwrite(&data[0], 4, 4, fh)
          stdio.fclose(fh)
          return true
        end
        terra rd(path : rawstring) : int
          var fh = stdio.fopen(path, 'rb')
          if fh == nil then return -1 end
          var data : int32[4]
          stdio.fread(&data[0], 4, 4, fh)
          stdio.fclose(fh)
          return data[0] + data[1] + data[2] + data[3]
        end
        """, env={"stdio": stdio})
        assert f.wr.compile(backend)(path) is True
        assert f.rd.compile(backend)(path) == 0 + 11 + 22 + 33

    def test_fopen_missing(self):
        f = terra("""
        terra f() : bool
          return stdio.fopen('/no/such/file', 'rb') == nil
        end
        """, env={"stdio": stdio})
        assert f.compile("interp")() is True

    def test_seek_tell_and_bytes(self, backend, tmp_path):
        path = str(tmp_path / f"bytes_{backend.name}.bin")
        f = terra("""
        terra f(path : rawstring) : int
          var fh = stdio.fopen(path, 'w+b')
          for c = 65, 70 do stdio.fputc(c, fh) end
          var n = [int](stdio.ftell(fh))
          stdio.fseek(fh, 2, 0)
          var c = stdio.fgetc(fh)
          stdio.fclose(fh)
          return n * 1000 + c
        end
        """, env={"stdio": stdio})
        assert f.compile(backend)(path) == 5067
        assert open(path, "rb").read() == b"ABCDE"

    def test_a_file_opened_on_the_interpreter_is_used_by_c(self, cbackend,
                                                           tmp_path):
        """A ``FILE*`` is the C library's own on both backends, so one the
        interpreter opened and kept in a global is written by C after the
        tier-up."""
        from repro.exec import TieredPolicy, policy_override
        path = str(tmp_path / "tiered.txt")
        fh = global_(stdio.fopen.external_type.returntype)
        put = terra("""
        terra put(c : int, path : rawstring) : int
          if fh == nil then fh = stdio.fopen(path, 'wb') end
          stdio.fputc(c, fh)
          if c == 0x21 then stdio.fclose(fh) fh = nil end
          return c
        end
        """, env={"stdio": stdio, "fh": fh})
        with policy_override(TieredPolicy(threshold=2, sync=True)):
            for c in b"tier!":
                assert put(c, path) == c
        assert put.dispatcher.tier_info()["tier"] == 1
        assert open(path, "rb").read() == b"tier!"


class TestMath:
    CASES = [("sqrt", 2.0), ("exp", 1.0), ("log", 2.718281828),
             ("sin", 0.5), ("cos", 0.5), ("floor", 2.7), ("ceil", 2.3),
             ("fabs", -3.5)]

    @pytest.mark.parametrize("name,arg", CASES)
    def test_double_agree(self, name, arg, cbackend):
        f = terra(f"""
        terra f(x : double) : double
          return mathh.{name}(x)
        end
        """, env={"mathh": mathh})
        c_val = f.compile(cbackend)(arg)
        i_val = f.compile("interp")(arg)
        assert c_val == pytest.approx(i_val, rel=1e-15)
        assert c_val == pytest.approx(getattr(math, name.replace("fabs", "fabs"), abs)(arg)
                                      if name != "fabs" else abs(arg))

    def test_pow_fmod(self, cbackend):
        f = terra("""
        terra f(a : double, b : double) : double
          return mathh.pow(a, b) + mathh.fmod(a, b)
        end
        """, env={"mathh": mathh})
        expected = math.pow(2.5, 1.5) + math.fmod(2.5, 1.5)
        assert f.compile(cbackend)(2.5, 1.5) == pytest.approx(expected)
        assert f.compile("interp")(2.5, 1.5) == pytest.approx(expected)


class TestRand:
    def test_deterministic_with_seed(self):
        f = terra("""
        terra f(seed : uint32) : int
          std.srand(seed)
          return std.rand()
        end
        """, env={"std": std})
        h = f.compile("interp")
        assert h(42) == h(42)
        assert h(42) != h(43)
        assert 0 <= h(1) < 2**31

    @staticmethod
    def draws(run):
        """Five draws through ``run`` after ``srand(1)``, and the five the
        process's C library gives."""
        import ctypes
        libc = ctypes.CDLL(None)
        libc.srand(1)
        want = [libc.rand() % 1000 for _ in range(5)]
        return [run(1)] + [run(0) for _ in range(4)], want

    DRAW = """
    terra draw(seed : uint32) : int
      if seed ~= 0 then std.srand(seed) end
      return std.rand() % 1000
    end
    """

    def test_one_sequence_on_every_backend(self, backend):
        """``rand`` is the process's C library on both backends."""
        got, want = self.draws(
            terra(self.DRAW, env={"std": std}).compile(backend))
        assert got == want

    @pytest.mark.parametrize("threshold", [1, 2, 3, 4, 5])
    def test_one_sequence_at_every_tier_up_threshold(self, threshold):
        """The tiers draw from one generator, so a program's sequence does
        not depend on where its calls switch to C."""
        from repro.exec import TieredPolicy, policy_override
        draw = terra(self.DRAW, env={"std": std})

        def run(seed):
            with policy_override(TieredPolicy(threshold=threshold,
                                              sync=True)):
                return draw(seed)
        got, want = self.draws(run)
        assert got == want
