"""Randomized differential testing: hypothesis-generated Terra programs
must compute identical results on the gcc backend and the reference
interpreter.

The generator produces closed integer/float programs (expressions,
assignments, if/for control flow) that are trap-free by construction:
divisors are forced nonzero, shift counts are small constants, and loop
counts are bounded.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro import get_backend, terra

# -- expression generator -----------------------------------------------------------

_INT_BIN = ["+", "-", "*", "and", "or", "^"]
_CMP = ["<", "<=", "==", "~="]


@st.composite
def int_expr(draw, depth=0):
    """An int32 expression over variables a, b, acc."""
    if depth > 3 or draw(st.booleans()):
        choice = draw(st.integers(0, 3))
        if choice == 0:
            return str(draw(st.integers(-100, 100)))
        return draw(st.sampled_from(["a", "b", "acc"]))
    kind = draw(st.integers(0, 3))
    if kind == 0:
        op = draw(st.sampled_from(_INT_BIN))
        lhs = draw(int_expr(depth + 1))
        rhs = draw(int_expr(depth + 1))
        return f"({lhs} {op} {rhs})"
    if kind == 1:  # safe division: |denominator| >= 1
        num = draw(int_expr(depth + 1))
        den = draw(int_expr(depth + 1))
        return f"({num} / (({den} and 7) + 9))"
    if kind == 2:  # constant shift
        val = draw(int_expr(depth + 1))
        amount = draw(st.integers(0, 7))
        op = draw(st.sampled_from(["<<", ">>"]))
        return f"({val} {op} {amount})"
    # note the space: "--" would start a Lua comment
    return f"(- {draw(int_expr(depth + 1))})"


@st.composite
def cond_expr(draw):
    lhs = draw(int_expr(2))
    rhs = draw(int_expr(2))
    return f"({lhs} {draw(st.sampled_from(_CMP))} {rhs})"


@st.composite
def statements(draw, depth=0):
    out = []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.integers(0, 3 if depth < 2 else 1))
        if kind == 0:
            out.append(f"acc = {draw(int_expr())}")
        elif kind == 1:
            out.append(f"acc = acc + {draw(int_expr(2))}")
        elif kind == 2:
            body = draw(statements(depth + 1))
            orelse = draw(statements(depth + 1))
            out.append(f"if {draw(cond_expr())} then\n{body}\nelse\n"
                       f"{orelse}\nend")
        else:
            body = draw(statements(depth + 1))
            n = draw(st.integers(1, 4))
            out.append(f"for i{depth} = 0, {n} do\n{body}\nend")
    return "\n".join(out)


@st.composite
def int_program(draw):
    body = draw(statements())
    return f"""
terra prog(a : int, b : int) : int
  var acc = a - b
  {body}
  return acc
end
"""


@pytest.mark.usefixtures("cbackend")     # skips where there is no gcc
class TestRandomIntPrograms:
    @settings(max_examples=60, deadline=None)
    @given(int_program(),
           st.lists(st.tuples(st.integers(-2**31, 2**31 - 1),
                              st.integers(-2**31, 2**31 - 1)),
                    min_size=2, max_size=4))
    def test_backends_agree(self, source, argsets):
        fn = terra(source, env={})
        hc = fn.compile(get_backend("c"))
        hi = fn.compile(get_backend("interp"))
        for a, b in argsets:
            assert hc(a, b) == hi(a, b), (source, a, b)


@st.composite
def float_expr(draw, depth=0):
    if depth > 3 or draw(st.booleans()):
        if draw(st.booleans()):
            value = draw(st.floats(min_value=-100, max_value=100,
                                   allow_nan=False))
            return repr(round(value, 3))
        return draw(st.sampled_from(["x", "y", "t"]))
    op = draw(st.sampled_from(["+", "-", "*"]))
    return (f"({draw(float_expr(depth + 1))} {op} "
            f"{draw(float_expr(depth + 1))})")


@st.composite
def float_program(draw):
    exprs = [draw(float_expr()) for _ in range(draw(st.integers(1, 3)))]
    body = "\n".join(f"t = {e}" for e in exprs)
    return f"""
terra prog(x : double, y : double) : double
  var t = x * y
  {body}
  return t
end
"""


@pytest.mark.usefixtures("cbackend")     # skips where there is no gcc
class TestRandomFloatPrograms:
    @settings(max_examples=40, deadline=None)
    @given(float_program(),
           st.lists(st.tuples(
               st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
               st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)),
               min_size=2, max_size=3))
    def test_backends_agree_bitwise(self, source, argsets):
        """Double arithmetic must agree *bitwise*: both backends perform
        IEEE double operations in the same order (gcc cannot reassociate
        without -ffast-math)."""
        fn = terra(source, env={})
        hc = fn.compile(get_backend("c"))
        hi = fn.compile(get_backend("interp"))
        for x, y in argsets:
            assert hc(x, y) == hi(x, y), (source, x, y)


class TestSignedOverflowWraps:
    """-fwrapv: Terra integer arithmetic wraps (LLVM semantics); gcc must
    not exploit signed-overflow UB."""

    def test_add_overflow(self, backend):
        f = terra("terra f(x : int) : int return x + x end")
        assert f.compile(backend)(2**30 + 5) == ((2**31 + 10) % 2**32) - 2**32

    def test_mul_overflow(self, backend):
        f = terra("terra f(x : int) : int return x * x end")
        h = f.compile(backend)
        assert h(65536) == 0  # 2^32 wraps to 0

    def test_overflow_loop_terminates(self, backend):
        # a classic UB-miscompilation pattern: i > 0 with i overflowing
        f = terra("""
        terra f() : int
          var i : int = 2147483600
          var steps = 0
          while i > 0 do
            i = i + 10
            steps = steps + 1
          end
          return steps
        end
        """)
        assert f.compile(backend)() == 5


@pytest.mark.usefixtures("cbackend")     # skips where there is no gcc
class TestRandomFloat32Programs:
    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.sampled_from(["+", "-", "*"]), min_size=1,
                    max_size=6),
           st.lists(st.tuples(
               st.floats(min_value=-100, max_value=100, allow_nan=False,
                         width=32),
               st.floats(min_value=-100, max_value=100, allow_nan=False,
                         width=32)),
               min_size=2, max_size=3))
    def test_per_op_rounding_matches(self, ops, argsets):
        """float32 chains round after every operation identically on both
        backends (the gcc backend compiles with -ffp-contract=off)."""
        body = "t"
        for i, op in enumerate(ops):
            operand = ["x", "y", "t", "0.5f"][i % 4]
            body = f"({body} {op} {operand})"
        fn = terra(f"""
        terra prog(x : float, y : float) : float
          var t = x * y
          t = {body}
          return t
        end
        """, env={})
        hc = fn.compile(get_backend("c"))
        hi = fn.compile(get_backend("interp"))
        for x, y in argsets:
            assert hc(x, y) == hi(x, y), (body, x, y)
