"""One accepted set for pointer arguments, four callers.

A value bound to a pointer parameter reaches a Terra function four ways:
the C handle's call plan, which takes a writable, C-contiguous ndarray of
the pointee's native dtype on a fast path and hands everything else to
``convert.pointer_address``; the C handle's checked path (``_invoke``); a
prepared caller (``tail_caller``), which converts once and runs later; and
the interpreter, which copies buffers into its own memory.  For every
value below all four must read the same machine value or raise
``FFIError`` with the same message — the twin of
``test_scalar_differential.py``.
"""

import ctypes

import numpy as np
import pytest

from repro import terra
from repro.buildd import toolchain
from repro.core import types as T
from repro.errors import FFIError
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
    except FFIError as exc:
        return str(exc)


def four_ways(pointee, value, n):
    c, interp = handles(pointee)

    def prepared():
        out = np.zeros(1, np.uint64)
        c.tail_caller(1, out, value)(n)
        return int(out[0])

    ways = {
        "plan": lambda: c(n, np.zeros(1, np.uint64), value),
        "checked": lambda: c._invoke((n, np.zeros(1, np.uint64), value)),
        "prepared": prepared,
        "interp": lambda: interp(n, np.zeros(1, np.uint64), value),
    }
    return {way: outcome(call) for way, call in ways.items()}


@pytest.mark.parametrize("pointee, value, n, want", ROWS,
                         ids=[f"{i}-{type(r[1]).__name__}"
                              for i, r in enumerate(ROWS)])
def test_every_caller_reads_the_same(pointee, value, n, want):
    assert four_ways(pointee, value, n) == dict.fromkeys(
        ("plan", "checked", "prepared", "interp"), want)


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
