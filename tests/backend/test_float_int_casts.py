"""The defined float→int cast on every (float source, integer target) pair.

docs/LANGUAGE.md "Defined semantics": truncate toward zero, saturate to
the target's range, NaN → 0.  The C backend emits one helper per pair
whose in-range path is one integer test on the source's bits; these tests
hold it to the interpreter and to ``saturate_float_to_int`` on a boundary
table and a strided sweep of float32 bit patterns, scalar and
``vector(T, 4)``, and prove with UBSan that the emitted unit never runs
an out-of-range C conversion.
"""

import math
import os
import re
import subprocess

import numpy as np
import pytest

from repro import terra
from repro.backend.interp.values import saturate_float_to_int
from repro.core import types as T

SOURCES = ["float", "double"]
TARGETS = ["int8", "int16", "int32", "int64",
           "uint8", "uint16", "uint32", "uint64"]
PAIRS = [(s, d) for s in SOURCES for d in TARGETS]
LANES = 4


def _boundary_table() -> list[float]:
    """NaN, ±0, ±inf, ±2^(w-1)±1 and 2^w for every width, subnormals of
    both source widths, and a few in-range fractions."""
    table = [math.nan, 0.0, -0.0, math.inf, -math.inf,
             1.4e-45, -1.4e-45, 5e-324, -5e-324, 0.5, -0.5, -1.0, 1.5]
    for w in (8, 16, 32, 64):
        half = 2.0 ** (w - 1)
        table += [half - 1, half, half + 1, -half - 1, -half, -half + 1,
                  2.0 ** w]
    table += [0.0] * (-len(table) % LANES)
    return table


def _float32_sweep() -> np.ndarray:
    """Every 65,537th float32 bit pattern, plus ±64 ulps around ±0 and
    around ±2^(w-1) and 2^w for every width."""
    patterns = [np.arange(0, 1 << 32, 65537, dtype=np.uint64)]
    for w in (8, 16, 32, 64):
        for bound in (2.0 ** (w - 1), -(2.0 ** (w - 1)), 2.0 ** w):
            centre = int(np.float32(bound).view(np.uint32))
            patterns.append(np.arange(centre - 64, centre + 65,
                                      dtype=np.uint64))
    for zero in (0, 1 << 31):
        patterns.append(np.arange(zero, zero + 65, dtype=np.uint64))
    bits = np.concatenate(patterns).astype(np.uint32)
    bits = np.concatenate([bits, np.zeros(-len(bits) % LANES, np.uint32)])
    return bits.view(np.float32)


def _define_table():
    """One unit: a cast function per pair (a scalar loop into ``o``, a
    ``vector(T, 4)`` loop into ``ov``) and an entry ``table`` that runs
    them all over ``n`` float and ``n`` double inputs, writing pair ``k``'s
    results to rows ``2k`` (scalar) and ``2k+1`` (vector) of ``out``."""
    defs, calls = [], []
    for k, (src, dst) in enumerate(PAIRS):
        defs.append(f"""
        terra cast_{k}(x : &{src}, n : int, o : &{dst}, ov : &{dst}) : {{}}
          for i = 0, n do o[i] = [{dst}](x[i]) end
          for i = 0, n, {LANES} do
            @[&vector({dst}, {LANES})](ov + i) =
              [vector({dst}, {LANES})](@[&vector({src}, {LANES})](x + i))
          end
        end""")
        x = "xf" if src == "float" else "xd"
        calls.append(f"cast_{k}({x}, n, [&{dst}](out + {2 * k} * n), "
                     f"[&{dst}](out + {2 * k + 1} * n))")
    body = "\n          ".join(calls)
    return terra("\n".join(defs) + f"""
        terra table(xf : &float, xd : &double, n : int, out : &uint64) : {{}}
          {body}
        end""").table


@pytest.fixture(scope="module")
def table_fn():
    return _define_table()


def _columns(out: np.ndarray, n: int) -> dict:
    """``{(src, dst): [scalar results, vector results]}`` from ``table``'s
    ``out`` buffer."""
    rows = out.reshape(2 * len(PAIRS), n)
    got = {}
    for k, pair in enumerate(PAIRS):
        dtype = np.dtype(getattr(np, pair[1]))
        got[pair] = [rows[r].view(dtype)[:n].tolist()
                     for r in (2 * k, 2 * k + 1)]
    return got


def _run(handle, xf: np.ndarray, xd=None) -> dict:
    """One run of ``table`` on the float32 inputs ``xf`` and the double
    inputs ``xd`` (by default the same values)."""
    n = len(xf)
    out = np.zeros(2 * len(PAIRS) * n, np.uint64)
    with np.errstate(invalid="ignore"):     # signalling NaNs widen
        handle(xf, xf.astype(np.float64) if xd is None else xd, n, out)
    return _columns(out, n)


def _expected(values, dst: str) -> list[int]:
    ty = getattr(T, dst)
    return [saturate_float_to_int(float(v), ty) for v in values]


class TestBoundaryTable:
    def test_c_and_interp_saturate_identically(self, table_fn, cbackend):
        table = _boundary_table()
        xf = np.array(table, np.float32)
        c = _run(table_fn.compile("c"), xf)
        interp = _run(table_fn.compile("interp"), xf)
        for src, dst in PAIRS:
            # a double source sees the float32-rounded values, so one
            # expected column serves both widths
            want = _expected(xf, dst)
            assert c[src, dst] == [want, want], (src, dst)
            assert interp[src, dst] == [want, want], (src, dst)

    def test_double_only_values(self, table_fn, cbackend):
        # values float32 cannot hold: the double source's own bounds
        xd = np.array([2.0 ** 63 - 1024, -(2.0 ** 63) - 2048, 2.0 ** 64 - 2048,
                       2147483647.5, -2147483648.5, 4294967295.5,
                       -0.9999999999, 1e300], np.float64)
        got = _run(table_fn.compile("c"), np.zeros(len(xd), np.float32), xd)
        for dst in TARGETS:
            want = _expected(xd, dst)
            assert got["double", dst] == [want, want], dst


class TestFloat32Sweep:
    def test_strided_bit_patterns(self, table_fn, cbackend):
        xf = _float32_sweep()
        got = _run(table_fn.compile("c"), xf)
        for dst in TARGETS:
            want = _expected(xf, dst)
            for src in SOURCES:
                assert got[src, dst] == [want, want], (src, dst)


_MAIN = r"""
#include <stdio.h>
#include <stdlib.h>

int main(void) {
  static const float xf[] = {%(xf)s};
  static const double xd[] = {%(xd)s};
  int n = %(n)d;
  uint64_t *out = calloc(%(rows)d * (size_t)n, sizeof *out);
  %(entry)s((float *)xf, (double *)xd, n, out);
  for (long i = 0; i < %(rows)d * (long)n; i++)
    printf("%%llu\n", (unsigned long long)out[i]);
  free(out);
  return 0;
}
"""


def _c_literal(v: float, suffix: str) -> str:
    if math.isnan(v):
        return "__builtin_nan(\"\")"
    if math.isinf(v):
        return "-__builtin_inf()" if v < 0 else "__builtin_inf()"
    return f"{v.hex()}{suffix}"


class TestSanitizer:
    """The emitted unit plus a ``main`` feeding it the boundary table, built
    with ``-fsanitize=float-cast-overflow -fno-sanitize-recover=all``: every
    C conversion the helpers run is in range, so the program exits 0 with
    the interpreter's values.  A raw ``(int32_t)x`` helper in the same
    program must make that run fail."""

    def _build_and_run(self, source: str, tmp_path):
        from repro.buildd import toolchain
        entry = re.search(r"\b(tfn\d+_table)\s*\(", source).group(1)
        xf = np.array(_boundary_table(), np.float32)
        main = _MAIN % dict(
            xf=", ".join(_c_literal(float(v), "f") for v in xf),
            xd=", ".join(_c_literal(float(v), "") for v in xf),
            n=len(xf), rows=2 * len(PAIRS), entry=entry)
        c_path = os.path.join(tmp_path, "table.c")
        exe = os.path.join(tmp_path, "table")
        with open(c_path, "w") as f:
            f.write(source + main)
        with open(os.path.join(tmp_path, "probe.c"), "w") as f:
            f.write("int main(void) { return 0; }\n")
        cmd = [toolchain.default_toolchain().path, "-O2",
               "-fsanitize=float-cast-overflow", "-fno-sanitize-recover=all"]
        probe = subprocess.run(
            cmd + [os.path.join(tmp_path, "probe.c"), "-o", exe],
            capture_output=True, text=True)
        if probe.returncode != 0:
            pytest.skip(f"no UBSan runtime: {probe.stderr[-300:]}")
        build = subprocess.run(cmd + [c_path, "-o", exe],
                               capture_output=True, text=True)
        assert build.returncode == 0, build.stderr
        run = subprocess.run([exe], capture_output=True, text=True,
                             timeout=60)
        return run, xf

    def test_emitted_unit_is_ubsan_clean(self, table_fn, cbackend, tmp_path):
        run, xf = self._build_and_run(table_fn.get_c_source(), tmp_path)
        assert run.returncode == 0, run.stderr
        got = _columns(np.array(run.stdout.split(), np.uint64), len(xf))
        for src, dst in PAIRS:
            want = _expected(xf, dst)
            assert got[src, dst] == [want, want], (src, dst)

    def test_a_raw_cast_helper_fails_under_ubsan(self, table_fn, cbackend,
                                               tmp_path):
        source, count = re.subn(
            r"(static inline int32_t trepro_f32_i32\(float x\) \{\n).*?\n\}",
            r"\1  return (int32_t)x;\n}", table_fn.get_c_source(),
            flags=re.S)
        assert count == 1
        run, _ = self._build_and_run(source, tmp_path)
        assert run.returncode != 0
        assert "outside the range of representable values" in run.stderr
