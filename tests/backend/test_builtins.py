"""Interpreter libc builtin tests (printf formatting, strings, files,
math) and cross-backend libc agreement."""

import math

import numpy as np
import pytest

from repro import get_backend, global_, includec, terra

std = includec("stdlib.h")
stdio = includec("stdio.h")
strh = includec("string.h")
mathh = includec("math.h")


def interp_machine():
    return get_backend("interp").machine


class TestPrintf:
    def run_printf(self, fmt, *terra_args_source):
        machine = interp_machine()
        machine.stdout_chunks.clear()
        args = ", ".join(terra_args_source)
        sep = ", " if args else ""
        f = terra(f"""
        terra f() : {{}}
          stdio.printf('{fmt}'{sep}{args})
        end
        """, env={"stdio": stdio})
        f.compile("interp")()
        return "".join(machine.stdout_chunks)

    def test_int(self, capsys):
        assert self.run_printf("%d|%05d|%x", "42", "7", "255") \
            == "42|00007|ff"
        capsys.readouterr()

    def test_float(self, capsys):
        assert self.run_printf("%.2f|%g", "3.14159", "0.5") == "3.14|0.5"
        capsys.readouterr()

    def test_string_and_char(self, capsys):
        assert self.run_printf("%s=%c", "'abc'", "65") == "abc=A"
        capsys.readouterr()

    def test_percent_literal(self, capsys):
        assert self.run_printf("100%%") == "100%"
        capsys.readouterr()

    def test_long_modifier(self, capsys):
        out = self.run_printf("%ld", "[int64](1) << 40")
        assert out == str(1 << 40)
        capsys.readouterr()


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
