"""One accepted set for pointer arguments, every caller.

A value bound to a pointer parameter reaches a Terra function five ways:
through the function's call slot and through a direct call of its C
handle — both run the handle's ``entry``, which takes a writable,
C-contiguous ndarray of the pointee's native dtype on a fast path and
hands everything else to the per-type converter and so to
``convert.pointer_address``; through the C handle's checked path
(``_invoke``); through a prepared caller (``tail_caller``), which converts
once and runs later; and through the interpreter, which copies buffers
into its own memory.  For every value below all five must read the same
machine value or raise ``FFIError`` with the same message — the twin of
``test_scalar_differential.py``.  The handle's ``entry`` is generated per
signature shape, so a pointer alone, a pointer returned, and a pointer in a
unit with trappable operations (whose plan lends a trap cell) are rows too.
"""

import ctypes
import struct

import numpy as np
import pytest

from repro import terra
from repro.buildd import toolchain
from repro.core import types as T
from repro.backend.c import runtime
from repro.errors import FFIError, TrapError
from repro.exec import TieredPolicy, policy_override
from repro.ffi.cdata import CPointer

pytestmark = pytest.mark.skipif(not toolchain.cc_available(),
                                reason="no C compiler on this host")

#: ``probe(n, out, p)``: for ``n >= 0`` a digest of ``p[0 … n)``, else the
#: address itself; written to ``out[0]`` too, for the prepared caller
PROBE = """
terra probe(n : int, out : &uint64, p : &{ty}) : uint64
  var r = [uint64](p)
  if n >= 0 then
    r = 0
    for i = 0, n do r = r * 31 + [uint64](p[i]) end
  end
  out[0] = r
  return r
end
"""


class Tagged(np.ndarray):
    pass


class AsParameter:
    def __init__(self, value):
        self._as_parameter_ = value


class Pair(ctypes.Structure):
    _fields_ = [("a", ctypes.c_double), ("b", ctypes.c_double)]


def digest(elements):
    r = 0
    for e in elements:
        r = (r * 31 + int(e)) % 2 ** 64
    return r


def read_only(arr):
    arr.flags.writeable = False
    return arr


def out_of_range(address):
    return f"address {address} out of range for pointer type &double"


F8 = np.arange(1.0, 5.0)
ROWS = [    # (pointee, value, n, what every caller reads)
    ("double", F8.copy(), 4, digest(F8)),
    ("double", F8.reshape(2, 2).copy(), 4, digest(F8)),
    ("int64", np.arange(1, 5, dtype="l"), 4, digest(F8)),
    ("int64", np.arange(1, 5, dtype="q"), 4, digest(F8)),
    ("bool", np.array([True, False, True]), 3, digest([1, 0, 1])),
    ("double", read_only(F8.copy()), 4, digest(F8)),
    ("double", np.zeros(0), 0, 0),
    ("double", F8.copy().view(Tagged), 4, digest(F8)),
    ("double", (ctypes.c_double * 4)(*F8), 4, digest(F8)),
    ("double", Pair(1.0, 2.0), 2, digest([1, 2])),
    ("int8", "héllo", 6, digest(np.frombuffer("héllo".encode(), np.int8))),
    ("int8", b"abc", 3, digest(b"abc")),
    ("int8", bytearray(b"abcd"), 4, digest(b"abcd")),
    ("double", CPointer(T.pointer(T.float64), 0x3000), -1, 0x3000),
    ("double", None, -1, 0),
    ("double", 0x1000, -1, 0x1000),
    ("double", True, -1, 1),
    ("double", np.int64(0x2000), -1, 0x2000),
    ("double", 2 ** 64 - 1, -1, 2 ** 64 - 1),
    ("double", np.uint64(2 ** 64 - 1), -1, 2 ** 64 - 1),
    ("double", AsParameter(0x4000), -1, 0x4000),
    # refused, one message on every path
    ("double", np.arange(1.0, 5.0, dtype=">f8"), 4,
     "numpy array of dtype >f8 passed where &double expected"),
    ("double", np.zeros(4, np.int32), 4,
     "numpy array of dtype int32 passed where &double expected"),
    ("double", np.zeros(4, np.float16), 4,
     "no Terra type for numpy dtype float16"),
    ("double", np.arange(8.0)[::2], 4,
     "numpy arrays passed to Terra must be C-contiguous"),
    ("double", np.zeros((2, 2), order="F"), 4,
     "numpy arrays passed to Terra must be C-contiguous"),
    ("double", 1.5, -1, "cannot convert float to pointer type &double"),
    ("double", object(), -1, "cannot convert object to pointer type &double"),
    # integers wrapped silently before they were range-checked
    ("double", 2 ** 64 + 8, -1, out_of_range(2 ** 64 + 8)),
    ("double", -8, -1, out_of_range(-8)),
    ("double", np.int64(-8), -1, out_of_range(-8)),
    ("double", AsParameter(-8), -1, out_of_range(-8)),
]

_handles = {}


def handles(pointee):
    """``(C handle, interpreter handle)`` of ``probe`` on ``&pointee``."""
    if pointee not in _handles:
        fn = terra(PROBE.format(ty=pointee))
        _handles[pointee] = fn.compile("c"), fn.compile("interp")
    return _handles[pointee]


def outcome(call):
    try:
        return call()
    except (FFIError, TrapError) as exc:
        return str(exc)


def routes(fn):
    """``fn``'s call slot, C handle, checked path and interpreter, as
    ``name -> call(*args)``."""
    c, interp = fn.compile("c"), fn.compile("interp")

    def slot(*args):
        with policy_override("c"):      # whatever REPRO_TERRA_BACKEND says
            return fn(*args)

    return {"slot": slot, "handle": c,
            "checked": lambda *args: c._invoke(args), "interp": interp}


def callers(pointee):
    """Every route of a call of ``probe``; the prepared caller reads its
    result from ``out``."""
    c, _ = handles(pointee)

    def prepared(n, out, *rest):
        c.tail_caller(1, out, *rest)(n)
        return int(out[0])

    return {**routes(c.func), "prepared": prepared}


def every_way(pointee, value, n):
    return {way: outcome(lambda: call(n, np.zeros(1, np.uint64), value))
            for way, call in callers(pointee).items()}


@pytest.mark.parametrize("pointee, value, n, want", ROWS,
                         ids=[f"{i}-{type(r[1]).__name__}"
                              for i, r in enumerate(ROWS)])
def test_every_caller_reads_the_same(pointee, value, n, want):
    assert every_way(pointee, value, n) == dict.fromkeys(
        ("slot", "handle", "checked", "prepared", "interp"), want)


@pytest.mark.parametrize("args", [(), (-1, np.zeros(1, np.uint64)),
                                  (-1, np.zeros(1, np.uint64), None, None)],
                         ids=["none", "too-few", "too-many"])
def test_too_few_and_too_many_arguments(args):
    """The arity check is the entry's own (ctypes lets the symbol take
    surplus arguments).  The prepared caller binds the trailing
    parameters only, so it is not a route here."""
    ways = callers("double")
    del ways["prepared"]
    want = f"probe() takes 3 arguments, got {len(args)}"
    assert {way: outcome(lambda: call(*args)) for way, call in ways.items()} \
        == dict.fromkeys(ways, want)


def test_the_fast_path_hands_over_the_array_itself(cbackend):
    """A native array is passed by address, not copied: a write through
    the pointer lands in it, and what it was converted to is the array."""
    h = terra("terra bump(x : &double) x[0] = x[0] + 1 end").compile(cbackend)
    x, keep = np.zeros(2), []
    assert h.converters[0](x, keep) == x.ctypes.data
    assert len(keep) == 1 and keep[0] is x
    h(x)
    h._invoke((x,))
    assert list(x) == [2.0, 0.0]


def one_outcome(fn, *args):
    """``fn``'s outcome for ``args``, the same on every route."""
    got = {way: outcome(lambda: call(*args))
           for way, call in routes(fn).items()}
    assert got == dict.fromkeys(got, got["slot"]), args
    return got["slot"]


@pytest.mark.parametrize("value, want", [
    (np.arange(2.0, 5.0), 2.0), (read_only(np.arange(3.0, 5.0)), 3.0),
    ((ctypes.c_double * 1)(4.5), 4.5),
    (np.arange(8.0)[1::2], "numpy arrays passed to Terra must be C-contiguous"),
    (np.zeros(2, np.float32),
     "numpy array of dtype float32 passed where &double expected"),
    (-8, out_of_range(-8))])
def test_a_pointer_alone(value, want):
    first = terra("terra first(x : &double) : double return x[0] end")
    assert one_outcome(first, value) == want
    assert one_outcome(first) == "first() takes 1 arguments, got 0"


@pytest.mark.parametrize("value, address", [
    (0x1000, 0x1010), (None, 0x10), (np.uint64(0x2000), 0x2010),
    (CPointer(T.pointer(T.float64), 0x3000), 0x3010)])
def test_a_pointer_returned(value, address):
    """A pointer result is a ``CPointer`` of the return type on every route
    (the result type stays ``c_uint64``: an int); addresses, not buffers,
    so the interpreter's copy-in does not move them."""
    shift = terra("terra shift(p : &double, k : int) : &double "
                  "return p + k end")
    got = {way: call(value, 2) for way, call in routes(shift).items()}
    for way, result in got.items():
        assert isinstance(result, CPointer), way
        assert result.type == T.pointer(T.float64), way
        assert result.address == address, way


def test_a_pointer_in_a_guarded_unit():
    """The plan converts pointers before it lends the trap cell: a pointer
    it refuses, and a scalar ctypes refuses with the cell lent, both leave
    every cell at rest and zeroed."""
    idiv = terra("terra idiv(x : &int, d : int) : int return x[0] / d end")
    assert idiv.compile("c").centry is not None
    x = np.array([12], np.int32)
    assert one_outcome(idiv, x, 4) == 3
    rest = len(runtime._TRAP_CELLS)
    for args, want in [
            ((x, 0), "integer division by zero"),
            ((np.zeros(1), 1),
             "numpy array of dtype float64 passed where &int32 expected"),
            ((x, "y"), "cannot convert 'y' to int32"),
            ((x, 3), 4)]:
        assert one_outcome(idiv, *args) == want, args
        assert len(runtime._TRAP_CELLS) == rest, args
        assert not any(cell.value for cell in runtime._TRAP_CELLS)


def test_a_bytearray_takes_the_kernels_writes():
    """A ``bytearray`` is bound as a writable ndarray is, by its own
    storage (the interpreter copies it back): ``scale`` doubles it in
    place on every route, under ``tiered`` at both tiers.  ``bytes`` stay
    a read-only copy."""
    scale = terra("terra scale(p : &double, n : int, k : double) "
                  "for i = 0, n do p[i] = p[i] * k end end")
    tiered = TieredPolicy(threshold=2, sync=True)

    def tiered_call(*args):
        with policy_override(tiered):
            scale(*args)

    for way, call in {**routes(scale), "tiered 0": tiered_call,
                      "tiered 1": tiered_call}.items():
        buf = bytearray(struct.pack("4d", 1.0, 2.0, 3.0, 4.0))
        call(buf, 4, 2.0)
        assert struct.unpack("4d", buf) == (2.0, 4.0, 6.0, 8.0), way
        frozen = bytes(buf)
        call(frozen, 4, 2.0)
        assert struct.unpack("4d", frozen) == (2.0, 4.0, 6.0, 8.0), way
    assert scale.dispatcher.tier_info()["tier"] == 1
