"""One accepted set for scalar arguments, every route a call can take.

A scalar reaches a Terra function through the function's call slot and
through a direct call of its C handle — both run the handle's ``entry``,
which hands a number to ctypes' ``argtypes`` unconverted; through the C
handle's checked path (``_invoke``: every argument through
``convert.python_to_primitive``), which ``entry`` falls back to when ctypes
refuses; and through the interpreter, which converts the same way.  For
every primitive type and every value below they must return the same
machine value or raise ``FFIError`` with the same message —
``python_to_primitive`` is written to accept what ctypes accepts, and this
is what holds it there.  A call with too few or too many arguments raises
one message on every route too.
"""

import ctypes
import decimal
import enum
import fractions
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import terra
from repro.buildd import toolchain
from repro.errors import FFIError
from repro.exec import policy_override
from repro.trace.metrics import registry

pytestmark = pytest.mark.skipif(not toolchain.cc_available(),
                                reason="no C compiler on this host")

TYPES = ["int8", "int16", "int32", "int64", "uint8", "uint16", "uint32",
         "uint64", "float", "double", "bool"]


class OnlyIndex:
    def __index__(self):
        return 300


class OnlyFloat:
    def __float__(self):
        return 2.5


class AsParameter:
    def __init__(self, value):
        self._as_parameter_ = value


class Color(enum.IntEnum):
    RED = 7


ADVERSARIAL = [
    0, 1, -1, 127, 128, 255, 256, -129, 2 ** 31 - 1, 2 ** 31, -2 ** 31 - 1,
    2 ** 32 + 6, 2 ** 63 - 1, 2 ** 63, -2 ** 63 - 1, 2 ** 64, 2 ** 64 + 5,
    -2 ** 70, 10 ** 30, 10 ** 39, 10 ** 400, -10 ** 400,
    True, False,
    0.0, -0.0, 2.0, -3.0, 2.5, 0.1, 1e30, 1e39, -1e39, 1e308, 5e-324,
    3.4028235677973366e38,                  # rounds past FLT_MAX: inf
    math.inf, -math.inf, math.nan,
    np.int8(-1), np.uint8(200), np.int64(2 ** 40), np.uint64(2 ** 64 - 1),
    np.bool_(True), np.bool_(False), np.float16(1.5), np.float32(0.1),
    np.float32(2.0), np.float64(2.0), np.float64(2.5), np.float64("nan"),
    np.array(3), np.array(2.5),
    None, "7", "", b"7", 1j, [1], object(),
    OnlyIndex(), OnlyFloat(), Color.RED, decimal.Decimal("1.5"),
    fractions.Fraction(3, 2),
    ctypes.c_int32(5), ctypes.c_int64(2 ** 40), ctypes.c_uint8(200),
    ctypes.c_float(0.1), ctypes.c_double(2.5), ctypes.c_bool(True),
    ctypes.c_char(b"a"), ctypes.c_void_p(None),
    AsParameter(9), AsParameter(2.0), AsParameter("9"),
    AsParameter(ctypes.c_int32(5)),
]

_handles = {}


def handles(ty):
    """``(C handle, interpreter handle)`` of the identity on ``ty``."""
    if ty not in _handles:
        fn = terra(f"terra same(x : {ty}) : {ty} return x end")
        _handles[ty] = fn.compile("c"), fn.compile("interp")
    return _handles[ty]


def outcome(call, *args):
    """What a call did, comparably: the result's type and bits (``nan``
    and ``-0.0`` included), or the FFIError's text.  Anything else it
    raises — OverflowError, ctypes.ArgumentError — fails the test."""
    try:
        result = call(*args)
    except FFIError as exc:
        return "FFIError", str(exc)
    if isinstance(result, float):
        return "float", struct.pack("<d", result)
    return type(result).__name__, result


def callers(c, interp):
    """Every route of a call from Python, as ``name -> call(*args)``: the
    function's call slot, its C handle called directly, that handle's
    checked path and the interpreter."""
    def slot(*args):
        with policy_override("c"):      # whatever REPRO_TERRA_BACKEND says
            return c.func(*args)

    return {"slot": slot, "handle": c,
            "checked": lambda *args: c._invoke(args), "interp": interp}


def every_way(ty, *args):
    got = {way: outcome(call, *args)
           for way, call in callers(*handles(ty)).items()}
    assert got == dict.fromkeys(got, got["slot"]), (ty, args)
    return got["slot"]


@pytest.mark.parametrize("ty", TYPES)
def test_adversarial_values_agree(ty):
    results = [every_way(ty, value) for value in ADVERSARIAL]
    # the matrix is not vacuous: values are accepted and refused
    assert 30 < sum(kind != "FFIError" for kind, _ in results)
    if ty != "bool":                        # (truthiness takes anything)
        assert 10 < sum(kind == "FFIError" for kind, _ in results)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(st.sampled_from(TYPES), st.one_of(
    st.integers(-2 ** 70, 2 ** 70),
    st.integers(-2 ** 16, 2 ** 16),
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(width=32),
    st.integers(-2 ** 40, 2 ** 40).map(float),
    st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64),
    st.integers(0, 255).map(np.uint8),
    st.floats(width=32).map(np.float32),
    st.booleans(),
))
def test_generated_values_agree(ty, value):
    every_way(ty, value)


def test_what_the_values_read_as():
    """The documented readings, pinned on one route (the others agree)."""
    assert every_way("int8", 300) == ("int", 44)
    assert every_way("uint64", -1) == ("int", 2 ** 64 - 1)
    assert every_way("int32", 2 ** 64 + 5) == ("int", 5)
    assert every_way("int32", 4.0) == ("int", 4)
    assert every_way("int32", True) == ("int", 1)
    assert every_way("int16", OnlyIndex()) == ("int", 300)
    assert every_way("float", 1e39) == ("float", struct.pack("<d", math.inf))
    assert every_way("float", 0.1) == (
        "float", struct.pack("<d", float(np.float32(0.1))))
    assert every_way("double", -0.0) == ("float", struct.pack("<d", -0.0))
    assert every_way("double", OnlyFloat()) == (
        "float", struct.pack("<d", 2.5))
    assert every_way("double", np.bool_(True)) == (
        "float", struct.pack("<d", 1.0))
    assert every_way("bool", "no") == ("bool", True)
    assert every_way("bool", 256) == ("bool", True)    # not (uint8)256
    assert every_way("int32", 4.5) == (
        "FFIError", "cannot convert 4.5 to int32")
    assert every_way("int32", np.bool_(True)) == (
        "FFIError", f"cannot convert {np.True_!r} to int32")
    assert every_way("double", 10 ** 400)[0] == "FFIError"
    assert every_way("double", "1.5") == (
        "FFIError", "cannot convert '1.5' to double")
    assert every_way("double", None) == (
        "FFIError", "cannot convert None to double")


def test_bool_results_are_bools():
    """``abi.ctype_for(bool)`` is ``c_uint8``: ctypes hands back an int."""
    lt = terra("terra lt(a : int, b : int) : bool return a < b end")
    c, interp = lt.compile("c"), lt.compile("interp")
    for way, call in callers(c, interp).items():
        assert call(-1, 0) is True and call(0, -1) is False, way


@pytest.mark.parametrize("ty", TYPES)
def test_too_few_and_too_many_arguments(ty):
    for args in [(), (1, 2), (None, None, None)]:
        assert every_way(ty, *args) == (
            "FFIError", f"same() takes 1 arguments, got {len(args)}")


def test_surplus_and_missing_arguments():
    """ctypes itself lets a cdecl function with ``argtypes`` take surplus
    arguments — the symbol returns the sum of the first two — so the
    arity check is the entry's own, made on every call."""
    add = terra("terra add(a : int, b : int) : int return a + b end")
    c, interp = add.compile("c"), add.compile("interp")
    assert c.cfn(1, 2, 3) == 3
    for args in [(), (1,), (1, 2, 3), (1, 2, None)]:
        want = "FFIError", f"add() takes 2 arguments, got {len(args)}"
        for way, call in callers(c, interp).items():
            assert outcome(call, *args) == want, way


def test_the_leftmost_refusal_is_the_error():
    """The plan converts pointers before ctypes sees the scalars; a call
    wrong in both still reports what the checked path reports."""
    axpy = terra("""
    terra axpy(n : int, a : double, x : &double, y : &double) : {}
      for i = 0, n do y[i] = a * x[i] + y[i] end
    end
    """)
    y = np.ones(4)
    for call in (axpy.compile("c"), axpy.compile("interp")):
        assert outcome(call, 2.5, 1.0, np.ones(4, np.float32), y) == (
            "FFIError", "cannot convert 2.5 to int32")
        assert outcome(call, 4, "a", np.ones((4, 4))[:, 0], y) == (
            "FFIError", "cannot convert 'a' to double")
        assert outcome(call, 4, 1.0, np.ones((4, 4))[:, 0], None) == (
            "FFIError", "numpy arrays passed to Terra must be C-contiguous")


def test_checked_calls_are_counted():
    """``exec.call.checked`` answers "why was this call slow": it moves
    when, and only when, the plan had to fall back."""
    c, _ = handles("int32")
    d, _ = handles("double")
    count = lambda: registry().get("exec.call.checked")   # noqa: E731
    before = count()
    for value in (1, -2 ** 40, True, np.int64(3), Color.RED, OnlyIndex()):
        c(value)
    for value in (1, 0.5, np.float32(0.5), math.nan, OnlyFloat()):
        d(value)
    assert count() == before
    assert c(2.0) == 2 and d(ctypes.c_int32(2)) == 2.0
    assert count() == before + 2
    with pytest.raises(FFIError):
        c(2.5)
    with pytest.raises(FFIError):
        c(1, 2)
    assert count() == before + 4
