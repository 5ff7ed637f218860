"""The paired string/decorator kernel corpus for frontend parity.

Each entry is a *factory*: calling it builds a fresh ``(string_fn,
py_fn, run)`` triple — fresh because a function keeps one handle per
backend, so every (level, backend) configuration needs its own
functions.  ``run(fn)`` executes the kernel on deterministic inputs and
returns a list of ``bytes`` capturing every observable result
bit-exactly (scalar returns via struct packing, buffers via
``tobytes``), so two runs compare with plain ``==``.

The corpus deliberately covers the shapes the acceptance criteria name:
a stencil, reductions, a pointer-aliasing case and a quote-splicing
case, plus control flow, casts, bit operations and nested loops.
"""

import struct

import numpy as np

from repro import (double, fabs, fmin, int32, int64, ptr, quote_, sqrt,
                   symbol, terra)

PAIRS = []


def pair(factory):
    PAIRS.append((factory.__name__.removeprefix("make_"), factory))
    return factory


def bits(value) -> bytes:
    """A bit-exact encoding of a scalar result (floats widen exactly)."""
    if value is None:
        return b"unit"
    if isinstance(value, bool):
        return b"\x01" if value else b"\x00"
    if isinstance(value, int):
        return struct.pack("<q", value)
    if isinstance(value, float):
        return struct.pack("<d", value)
    raise TypeError(f"unexpected result {value!r}")


@pair
def make_add():
    s = terra("""
    terra add(a : int, b : int) : int
      return a + b
    end
    """, env={})

    @terra
    def add(a: int32, b: int32) -> int32:
        return a + b

    def run(fn):
        return [bits(fn(a, b)) for a, b in
                [(0, 0), (3, 4), (-7, 19), (2147483640, 1)]]
    return s, add, run


@pair
def make_saxpy():
    s = terra("""
    terra saxpy(y : &float, x : &float, a : float, n : int) : {}
      for i = 0, n do
        y[i] = a * x[i] + y[i]
      end
    end
    """, env={})

    @terra
    def saxpy(y: ptr(float), x: ptr(float), a: float, n: int32) -> None:
        for i in range(n):
            y[i] = a * x[i] + y[i]

    def run(fn):
        rng = np.random.default_rng(11)
        y = rng.standard_normal(33).astype(np.float32)
        x = rng.standard_normal(33).astype(np.float32)
        out = [bits(fn(y, x, np.float32(1.25), 33))]
        return out + [y.tobytes(), x.tobytes()]
    return s, saxpy, run


@pair
def make_blur3():
    # the acceptance stencil: 3-point blur over the interior
    s = terra("""
    terra blur3(dst : &float, src : &float, n : int) : {}
      for i = 1, n - 1 do
        dst[i] = (src[i - 1] + src[i] + src[i + 1]) / 3.0
      end
    end
    """, env={})

    @terra
    def blur3(dst: ptr(float), src: ptr(float), n: int32) -> None:
        for i in range(1, n - 1):
            dst[i] = (src[i - 1] + src[i] + src[i + 1]) / 3.0

    def run(fn):
        rng = np.random.default_rng(5)
        src = rng.standard_normal(40).astype(np.float32)
        dst = np.zeros(40, dtype=np.float32)
        fn(dst, src, 40)
        return [dst.tobytes()]
    return s, blur3, run


@pair
def make_sum_sq():
    # an integer reduction (vectorizable at level 2)
    s = terra("""
    terra sum_sq(p : &int, n : int) : int
      var acc = 0
      for i = 0, n do
        acc = acc + p[i] * p[i]
      end
      return acc
    end
    """, env={})

    @terra
    def sum_sq(p: ptr(int32), n: int32) -> int32:
        acc = 0
        for i in range(n):
            acc = acc + p[i] * p[i]
        return acc

    def run(fn):
        p = (np.arange(37, dtype=np.int32) - 11) * 3
        return [bits(fn(p, 37)), bits(fn(p, 0))]
    return s, sum_sq, run


@pair
def make_dot():
    # a float reduction
    s = terra("""
    terra dot(a : &double, b : &double, n : int) : double
      var acc = 0.0
      for i = 0, n do
        acc = acc + a[i] * b[i]
      end
      return acc
    end
    """, env={})

    @terra
    def dot(a: ptr(double), b: ptr(double), n: int32) -> double:  # noqa: F821
        acc = 0.0
        for i in range(n):
            acc = acc + a[i] * b[i]
        return acc

    def run(fn):
        rng = np.random.default_rng(7)
        a = rng.standard_normal(29)
        b = rng.standard_normal(29)
        return [bits(fn(a, b, 29))]
    return s, dot, run


@pair
def make_shift_alias():
    # the acceptance pointer-aliasing case: read q[i + 1] while writing
    # p[i]; run() calls it with p == q so the load/store ranges overlap
    s = terra("""
    terra shift(p : &int, q : &int, n : int) : {}
      for i = 0, n - 1 do
        p[i] = q[i + 1] * 2 + p[i]
      end
    end
    """, env={})

    @terra
    def shift(p: ptr(int32), q: ptr(int32), n: int32) -> None:
        for i in range(n - 1):
            p[i] = q[i + 1] * 2 + p[i]

    def run(fn):
        buf = np.arange(26, dtype=np.int32)
        fn(buf, buf, 26)          # aliased: p and q are the same buffer
        other = np.arange(26, dtype=np.int32)
        dst = np.ones(26, dtype=np.int32)
        fn(dst, other, 26)        # and the disjoint control
        return [buf.tobytes(), dst.tobytes()]
    return s, shift, run


@pair
def make_unrolled():
    # the acceptance quote-splicing case: both frontends splice the same
    # helper-built quote list; the string twin targets an explicit
    # symbol(), the decorated twin reaches `acc` through the terra-scope
    # view escapes get (§4.1) — identical IR either way
    def steps_for(a):
        return [quote_("[a] = [a] + [i]*[i]", env={"a": a, "i": i})
                for i in range(5)]

    acc_sym = symbol(int32, "acc")
    s = terra("""
    terra unrolled(x : int) : int
      var [acc_sym] : int = 0
      [steps_for(acc_sym)]
      return [acc_sym] + x
    end
    """)

    @terra
    def unrolled(x: int32) -> int32:
        acc: int32 = 0
        {steps_for(acc)}
        return acc + x

    def run(fn):
        return [bits(fn(x)) for x in (0, 100, -30)]
    return s, unrolled, run


@pair
def make_collatz():
    # while loop, branches, augmented-style updates
    s = terra("""
    terra collatz(n : int, fuel : int) : int
      var steps = 0
      while n ~= 1 and steps < fuel do
        if n % 2 == 0 then
          n = n / 2
        else
          n = 3 * n + 1
        end
        steps = steps + 1
      end
      return steps
    end
    """, env={})

    @terra
    def collatz(n: int32, fuel: int32) -> int32:
        steps = 0
        while n != 1 and steps < fuel:
            if n % 2 == 0:
                n = n / 2
            else:
                n = 3 * n + 1
            steps = steps + 1
        return steps

    def run(fn):
        return [bits(fn(n, 200)) for n in (1, 6, 27, 97)]
    return s, collatz, run


@pair
def make_clamp():
    # if/elseif/else chains returning from branches
    s = terra("""
    terra clamp(x : int, lo : int, hi : int) : int
      if x < lo then
        return lo
      elseif x > hi then
        return hi
      else
        return x
      end
    end
    """, env={})

    @terra
    def clamp(x: int32, lo: int32, hi: int32) -> int32:
        if x < lo:
            return lo
        elif x > hi:
            return hi
        else:
            return x

    def run(fn):
        return [bits(fn(x, -5, 9)) for x in (-20, -5, 0, 9, 40)]
    return s, clamp, run


@pair
def make_bitmix():
    # shifts, bitwise and/or/xor, bitwise not, unary minus
    s = terra("""
    terra bitmix(a : int, b : int) : int
      var x = (a << 3) ^ (b >> 1)
      x = (x & 1023) | (a & b)
      return not x + (-b)
    end
    """, env={})

    @terra
    def bitmix(a: int32, b: int32) -> int32:
        x = (a << 3) ^ (b >> 1)
        x = (x & 1023) | (a & b)
        return ~x + (-b)

    def run(fn):
        return [bits(fn(a, b)) for a, b in
                [(0, 0), (5, 3), (-9, 77), (1024, -1)]]
    return s, bitmix, run


@pair
def make_cast_mix():
    # explicit casts through int64/double and narrowing back
    s = terra("""
    terra cast_mix(x : int, f : double) : double
      var wide = [int64](x) * 1000000
      var d = [double](wide) + f
      return d + [double]([int](f))
    end
    """, env={})

    @terra
    def cast_mix(x: int32, f: double) -> double:  # noqa: F821
        wide = int64(x) * 1000000
        d = double(wide) + f
        return d + double(int32(f))

    def run(fn):
        return [bits(fn(x, f)) for x, f in
                [(0, 0.5), (7, -3.75), (-4000, 1e6)]]
    return s, cast_mix, run


@pair
def make_rowsum():
    # nested loops over a flattened matrix
    s = terra("""
    terra rowsum(out : &int, m : &int, rows : int, cols : int) : {}
      for r = 0, rows do
        var acc = 0
        for c = 0, cols do
          acc = acc + m[r * cols + c]
        end
        out[r] = acc
      end
    end
    """, env={})

    @terra
    def rowsum(out: ptr(int32), m: ptr(int32), rows: int32,
               cols: int32) -> None:
        for r in range(rows):
            acc = 0
            for c in range(cols):
                acc = acc + m[r * cols + c]
            out[r] = acc

    def run(fn):
        m = np.arange(6 * 9, dtype=np.int32) % 13
        out = np.zeros(6, dtype=np.int32)
        fn(out, m, 6, 9)
        return [out.tobytes()]
    return s, rowsum, run


@pair
def make_strided():
    # range() with an explicit step — Terra's `for i = a, b, c`
    s = terra("""
    terra strided(p : &int, n : int) : int
      var acc = 0
      for i = 0, n, 3 do
        acc = acc + p[i]
      end
      return acc
    end
    """, env={})

    @terra
    def strided(p: ptr(int32), n: int32) -> int32:
        acc = 0
        for i in range(0, n, 3):
            acc = acc + p[i]
        return acc

    def run(fn):
        p = np.arange(40, dtype=np.int32) * 7
        return [bits(fn(p, 40)), bits(fn(p, 1))]
    return s, strided, run


@pair
def make_norm_calls():
    # calls to intrinsics (sqrt, fabs, fmin) and to another Terra
    # function — both twins link against the same helper
    square = terra("""
    terra square(x : double) : double
      return x * x
    end
    """, env={})

    s = terra("""
    terra norm_calls(a : double, b : double) : double
      var h = sqrt(square(a) + square(b))
      return fmin(fabs(h), 1000.0)
    end
    """)

    @terra
    def norm_calls(a: double, b: double) -> double:  # noqa: F821
        h = sqrt(square(a) + square(b))
        return fmin(fabs(h), 1000.0)

    def run(fn):
        return [bits(fn(a, b)) for a, b in
                [(3.0, 4.0), (-1.5, 2.25), (900.0, 800.0)]]
    return s, norm_calls, run


@pair
def make_escaped_scale():
    # expression escapes splicing closed-over Python constants
    factor = 7
    offset = 2.5
    s = terra("""
    terra escaped_scale(x : double) : double
      return x * [factor] + [offset]
    end
    """)

    @terra
    def escaped_scale(x: double) -> double:  # noqa: F821
        return x * {factor} + {offset}

    def run(fn):
        return [bits(fn(x)) for x in (0.0, 1.0, -12.5)]
    return s, escaped_scale, run
