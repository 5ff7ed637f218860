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

The handle's ``entry`` is generated per signature shape, so the rows below
also cover the shapes that matter to it: no arguments, one, a ``bool`` or a
struct among other positions, and a unit with trappable operations, whose
plan lends a trap cell inline and whose checked path lends it through
``runtime._guarded``.  A scalar signature's C handle is taken once its
``entry`` is the native one (its shape unit, :mod:`repro.backend.c.native`),
so the slot and handle routes run that, and the plan behind what it
refuses.

With no C compiler on the host the interpreter is the only route, and the
rows check it alone; what only a C route has takes ``cbackend``.
"""

import ctypes
import decimal
import enum
import fractions
import itertools
import math
import struct
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import functype, int_, pycallback, struct as terra_struct, terra
from repro.backend.c import native, runtime
from repro.buildd import toolchain
from repro.errors import FFIError, TrapError
from repro.exec import policy_override
from repro.trace.metrics import registry
from tests.exec.callpath import native_entry

#: the backends a row runs on: the interpreter alone with no compiler
BACKENDS = ("c", "interp") if toolchain.cc_available() else ("interp",)

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


def compiled(fn):
    """``(C handle or None, interpreter handle)`` of ``fn``; a scalar
    signature's C handle on its native entry (:func:`native_entry`)."""
    c = fn.compile("c") if "c" in BACKENDS else None
    if c is not None and native.shape(c.type, c.centry is not None):
        assert native_entry(c, *[0] * len(c.type.parameters))
    return c, fn.compile("interp")


def handles(ty):
    """:func:`compiled` for the identity on ``ty``."""
    if ty not in _handles:
        _handles[ty] = compiled(
            terra(f"terra same(x : {ty}) : {ty} return x end"))
    return _handles[ty]


def outcome(call, *args):
    """What a call did, comparably: the result's type and bits (``nan``
    and ``-0.0`` included), or the FFIError's or TrapError's text.
    Anything else it raises — OverflowError, ctypes.ArgumentError — fails
    the test."""
    try:
        result = call(*args)
    except (FFIError, TrapError) as exc:
        return type(exc).__name__, str(exc)
    if isinstance(result, float):
        return "float", struct.pack("<d", result)
    return type(result).__name__, result


def callers(c, interp):
    """Every route of a call from Python, as ``name -> call(*args)``: the
    function's call slot, its C handle called directly, that handle's
    checked path and the interpreter (alone when ``c`` is None)."""
    if c is None:
        return {"interp": interp}

    def slot(*args):
        with policy_override("c"):      # whatever REPRO_TERRA_BACKEND says
            return c.func(*args)

    return {"slot": slot, "handle": c,
            "checked": lambda *args: c._invoke(args), "interp": interp}


def agree(c, interp, *args):
    """The outcome of ``args``, the same on every route."""
    got = {way: outcome(call, *args)
           for way, call in callers(c, interp).items()}
    assert got == dict.fromkeys(got, got["interp"]), (interp.func.name, args)
    return got["interp"]


def every_way(ty, *args):
    return agree(*handles(ty), *args)


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


def test_the_c_routes_run_the_native_entry(cbackend):
    """What the rows above compare: the slot and a direct call of the
    handle run the native entry, a builtin named after the function."""
    c, _ = handles("int32")
    assert type(c.entry).__name__ == "builtin_function_or_method"
    assert c.entry.__name__ == "same"
    with policy_override("c"):
        assert c.func(7) == 7
        assert c.func.dispatcher.target is c.entry


def test_bool_results_are_bools():
    """``abi.ctype_for(bool)`` is ``c_uint8``: ctypes hands back an int."""
    lt = terra("terra lt(a : int, b : int) : bool return a < b end")
    for way, call in callers(*compiled(lt)).items():
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
    c, interp = compiled(add)
    assert c is None or c.cfn(1, 2, 3) == 3
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
    for call in (axpy.compile(backend) for backend in BACKENDS):
        assert outcome(call, 2.5, 1.0, np.ones(4, np.float32), y) == (
            "FFIError", "cannot convert 2.5 to int32")
        assert outcome(call, 4, "a", np.ones((4, 4))[:, 0], y) == (
            "FFIError", "cannot convert 'a' to double")
        assert outcome(call, 4, 1.0, np.ones((4, 4))[:, 0], None) == (
            "FFIError", "numpy arrays passed to Terra must be C-contiguous")


def test_checked_calls_are_counted(cbackend):
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


# -- signature shapes ---------------------------------------------------------------

def every_route(fn, *args):
    return agree(*compiled(fn), *args)


def test_no_arguments():
    zero = terra("terra zero() : int return 42 end")
    assert every_route(zero) == ("int", 42)
    for args in [(1,), (None, None)]:
        assert every_route(zero, *args) == (
            "FFIError", f"zero() takes 0 arguments, got {len(args)}")


def test_a_bool_among_scalars():
    """A ``bool`` is the one scalar the plan converts (truthiness): it sits
    between two positions handed to ctypes as they are."""
    pick = terra("""
    terra pick(a : int, on : bool, b : double) : double
      if on then return a end
      return b
    end""")
    for on in [True, False, 0, 2, -1, 0.0, "", "no", None, [], [0],
               np.bool_(False), np.int8(0), ctypes.c_bool(False)]:
        want = ("float", struct.pack("<d", 3.0 if on else 0.5))
        assert every_route(pick, 3, on, 0.5) == want, on
    assert every_route(pick, 2.5, True, 0.5) == (
        "FFIError", "cannot convert 2.5 to int32")
    assert every_route(pick, 1, True, "x") == (
        "FFIError", "cannot convert 'x' to double")


def test_a_struct_by_value():
    P = terra_struct("struct DiffP { a : int, b : double }")
    fns = terra("""
    terra make(a : int, b : double) : DiffP return DiffP { a, b } end
    terra sx(k : int, p : DiffP) : double return k * p.a + p.b end
    """, env={"DiffP": P})
    made = fns.make(4, 0.25)
    for value, want in [({"a": 2, "b": 0.5}, 4.5), ((3, 1.5), 7.5),
                        ([1, 2.0], 4.0), (made, 8.25)]:
        assert every_route(fns.sx, 2, value) == (
            "float", struct.pack("<d", want)), value
    for value in [{"a": 2}, (1, 2, 3), 5, None]:
        assert every_route(fns.sx, 2, value)[0] == "FFIError", value


# -- a unit with trappable operations: the guarded plan --------------------------

DIV = "terra div(a : int, b : int) : int return a / b end"


def cells_at_rest():
    """The trap cells not lent out, each checked zeroed."""
    assert not any(cell.value for cell in runtime._TRAP_CELLS)
    return len(runtime._TRAP_CELLS)


def test_a_guarded_unit_on_every_route():
    """A trap raises ``TrapError`` and the cell comes back zeroed; an
    argument refused mid-call — by ctypes, with the cell already lent —
    re-runs on the checked path and leaves no cell lent out."""
    div = terra(DIV)
    c, _ = compiled(div)
    assert c is None or c.centry is not None        # the guarded plan
    inv = terra("terra inv(a : int) : int return 100 / a end")
    every_route(div, 7, 2), every_route(inv, 4)
    rest = cells_at_rest()
    for fn, args, want in [
            (div, (7, 2), ("int", 3)),
            (div, (-2 ** 31, -1), ("int", -2 ** 31)),
            (div, (7, 0), ("TrapError", "integer division by zero")),
            (div, (7.0, 0), ("TrapError", "integer division by zero")),
            (div, (7, "x"), ("FFIError", "cannot convert 'x' to int32")),
            (div, (7, 0.5), ("FFIError", "cannot convert 0.5 to int32")),
            (div, (7,), ("FFIError", "div() takes 2 arguments, got 1")),
            (inv, (0,), ("TrapError", "integer division by zero")),
            (inv, (4,), ("int", 25)),
            (inv, (), ("FFIError", "inv() takes 1 arguments, got 0"))]:
        assert every_route(fn, *args) == want, args
        assert cells_at_rest() == rest, args


def c_routes(fn):
    """The C routes of ``fn`` (the interpreter lends no cell)."""
    ways = callers(*compiled(fn))
    del ways["interp"]
    return ways


def test_a_nested_guarded_call_gets_its_own_cell_on_every_route(cbackend):
    """A pycallback that calls a guarded function while the outer one's
    call holds a cell, for every pairing of outer and inner route."""
    inner = c_routes(terra(DIV))
    for inner_way, outer_way in itertools.product(inner, repeat=2):
        def reenter(b, _call=inner[inner_way]):
            try:
                return _call(12, b)
            except TrapError:
                return -1

        cb = pycallback(functype([int_], int_), reenter)
        outer = c_routes(terra(
            "terra outer(b : int, c : int) : int return cb(b) / c end",
            env={"cb": cb}))[outer_way]
        assert outer(3, 2) == 2                 # clean inside clean
        assert outer(0, 1) == -1                # a trap inside, caught inside
        for args in [(3, 0), (0, 0)]:           # the outer one traps
            with pytest.raises(TrapError, match="division by zero"):
                outer(*args)
        assert outer(4, 1) == 3
        cells_at_rest()


def test_eight_threads_on_every_route_never_share_a_cell(cbackend):
    div = c_routes(terra(DIV))
    ways = list(div)
    failures = []
    barrier = threading.Barrier(8)

    def work(k):
        barrier.wait(30)
        for i in range(1500):
            call = div[ways[(i + k) % len(ways)]]
            try:
                if (i + k) % 3 == 0:
                    call(i, 0)
                    failures.append((k, i, "no trap"))
                elif call(6 * i, 3) != 2 * i:
                    failures.append((k, i, "wrong result"))
            except TrapError as exc:
                if (i + k) % 3 or "division by zero" not in str(exc):
                    failures.append((k, i, f"stray trap: {exc}"))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert failures == []
    assert cells_at_rest() <= 8 + 2
