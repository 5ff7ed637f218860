"""FFI conversion tests — Python↔Terra value translation (paper §4.2)."""

import ctypes
import enum
import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro import struct, terra
from repro.backend.c.runtime import CompiledFunction
from repro.core import types as T
from repro.errors import FFIError
from repro.ffi import convert
from repro.ffi.cdata import CPointer, CStruct


class TestPrimitives:
    def test_int_conversion(self):
        assert convert.python_to_primitive(5, T.int32) == 5

    def test_int_wraps(self):
        assert convert.python_to_primitive(300, T.int8) == 44

    def test_whole_float_to_int(self):
        assert convert.python_to_primitive(4.0, T.int32) == 4

    def test_fractional_float_to_int_rejected(self):
        with pytest.raises(FFIError):
            convert.python_to_primitive(4.5, T.int32)

    def test_float_rounds_to_f32(self):
        v = convert.python_to_primitive(0.1, T.float32)
        assert v == np.float32(0.1)

    def test_bool(self):
        assert convert.python_to_primitive(1, T.bool_) is True

    @given(st.integers())
    def test_int_in_range(self, v):
        r = convert.python_to_primitive(v, T.int16)
        assert T.int16.min_value() <= r <= T.int16.max_value()


class TestStructs:
    def setup_method(self):
        self.S = T.struct("FfiS", [("a", T.int32), ("b", T.float64),
                                   ("p", T.pointer(T.int8))])

    def test_dict_to_blob(self):
        blob = convert.python_to_blob({"a": 1, "b": 2.5, "p": None}, self.S)
        assert len(blob) == self.S.sizeof()
        back = convert.blob_to_python(blob, self.S)
        assert back.a == 1 and back.b == 2.5 and back.p.isnull()

    def test_tuple_to_blob(self):
        blob = convert.python_to_blob((7, 1.5, 0), self.S)
        assert convert.blob_to_python(blob, self.S).a == 7

    def test_missing_field_rejected(self):
        with pytest.raises(FFIError, match="missing"):
            convert.python_to_blob({"a": 1}, self.S)

    def test_wrong_count_rejected(self):
        with pytest.raises(FFIError):
            convert.python_to_blob((1, 2), self.S)

    def test_nested_struct(self):
        inner = T.struct("FfiI", [("x", T.int16)])
        outer = T.struct("FfiO", [("i", inner), ("y", T.int64)])
        blob = convert.python_to_blob({"i": {"x": 3}, "y": 9}, outer)
        back = convert.blob_to_python(blob, outer)
        assert back.i.x == 3 and back.y == 9

    def test_array_blob(self):
        arr = T.array(T.int32, 3)
        blob = convert.python_to_blob([1, 2, 3], arr)
        back = convert.blob_to_python(blob, arr)
        assert back.totuple() == (1, 2, 3)


class TestPointers:
    def test_none_is_null(self):
        assert convert.pointer_address(None, T.rawstring) == (0, None)

    def test_int_address(self):
        addr, _ = convert.pointer_address(0x1234, T.rawstring)
        assert addr == 0x1234

    def test_numpy_checked(self):
        arr = np.zeros(4, dtype=np.float32)
        addr, keep = convert.pointer_address(arr, T.pointer(T.float32))
        assert addr == arr.ctypes.data and keep is arr

    def test_numpy_wrong_dtype(self):
        with pytest.raises(FFIError, match="dtype"):
            convert.pointer_address(np.zeros(4, dtype=np.int32),
                                    T.pointer(T.float32))

    def test_non_contiguous_rejected(self):
        arr = np.zeros((4, 4), dtype=np.float64)[:, ::2]
        with pytest.raises(FFIError, match="contiguous"):
            convert.pointer_address(arr, T.pointer(T.float64))

    def test_str_nul_terminated(self):
        addr, keep = convert.pointer_address("hi", T.rawstring)
        assert ctypes.string_at(addr) == b"hi"
        del keep


SUM = """
terra sum(x : &double, n : int) : double
  var s = 0.0
  for i = 0, n do s = s + x[i] end
  return s
end
"""
STRLEN = """
terra strlen(s : rawstring) : int
  var n = 0
  while s[n] ~= 0 do n = n + 1 end
  return n
end
"""


class TestPointerTable:
    """``pointer_address`` is one table keyed by ``type(value)``; a subclass
    finds its base's entry through the MRO, once."""

    PD = T.pointer(T.float64)

    def test_ndarray_subclass_resolves_through_the_mro(self, tmp_path):
        arr = np.memmap(tmp_path / "m", dtype=np.float64, mode="w+", shape=4)
        assert type(arr) not in convert._POINTER_ENTRIES
        addr, keep = convert.pointer_address(arr, self.PD)
        assert addr == arr.ctypes.data and keep is arr
        assert convert._DERIVED_ENTRIES[np.memmap] \
            is convert._POINTER_ENTRIES[np.ndarray]
        with pytest.raises(FFIError, match="dtype float64 passed where "
                           "&float expected"):    # same entry, same checks
            convert.pointer_address(arr, T.pointer(T.float32))

    def test_int_subclasses_are_addresses(self):
        class Reg(enum.IntEnum):
            BASE = 0x4000
        assert convert.pointer_address(Reg.BASE, self.PD) == (0x4000, None)
        assert convert.pointer_address(np.int64(64), self.PD) == (64, None)
        assert convert.pointer_address(True, self.PD) == (1, None)

    def test_ctypes_array_subclass(self):
        buf = (ctypes.c_double * 4)(1.0, 2.0, 3.0, 4.0)
        assert type(buf) is not ctypes.Array
        addr, keep = convert.pointer_address(buf, self.PD)
        assert addr == ctypes.addressof(buf) and keep is buf

    def test_as_parameter_is_the_last_resort(self):
        class Handle:
            def __init__(self, address):
                self._as_parameter_ = address   # on the instance, as ctypes
        h = Handle(0x1000)                      # itself looks it up
        assert convert.pointer_address(h, self.PD) == (0x1000, h)
        with pytest.raises(FFIError, match="cannot convert object to "
                           "pointer type &double"):
            convert.pointer_address(object(), self.PD)

    def test_read_only_array_is_accepted(self, cbackend):
        arr = np.arange(4, dtype=np.float64)
        arr.flags.writeable = False         # from_buffer would refuse it
        addr, keep = convert.pointer_address(arr, self.PD)
        assert addr == arr.ctypes.data and keep is arr
        assert terra(SUM).compile(cbackend)(arr, 4) == 6.0

    def test_zero_length_array(self, backend):
        arr = np.zeros(0)
        assert convert.pointer_address(arr, self.PD) == (arr.ctypes.data, arr)
        assert terra(SUM).compile(backend)(arr, 0) == 0.0

    def test_error_messages_are_exact(self, backend):
        h = terra(SUM).compile(backend)
        cases = [
            ((np.zeros((4, 4))[:, ::2], 2),
             "numpy arrays passed to Terra must be C-contiguous"),
            ((np.zeros(4, dtype=np.int32), 4),
             "numpy array of dtype int32 passed where &double expected"),
            ((np.zeros(4, dtype=np.float16), 4),
             "no Terra type for numpy dtype float16"),
            ((np.zeros(4),), "sum() takes 2 arguments, got 1"),
        ]
        for args, message in cases:
            with pytest.raises(FFIError) as exc:
                h(*args)
            assert str(exc.value) == message

    def test_byte_swapped_array_is_rejected(self, backend):
        """np.dtype('>f8').name is 'float64' too: a swapped array used to
        pass the dtype check and be read as native (6.0 came back as
        3.1e-319)."""
        h = terra(SUM).compile(backend)
        assert h(np.arange(4, dtype="=f8"), 4) == 6.0
        with pytest.raises(FFIError) as exc:
            h(np.arange(4, dtype=">f8"), 4)
        assert str(exc.value) == \
            "numpy array of dtype >f8 passed where &double expected"

    def test_string_temporaries_live_through_the_call(self, backend):
        h = terra(STRLEN).compile(backend)
        assert h("héllo") == 6                  # utf-8 bytes
        assert h(b"abc") == 3
        assert h(bytearray(b"abcd")) == 4

    SCALE = """
    terra scale(n : int, a : double, x : &double, y : &double) : {}
      for i = 0, n do y[i] = a * x[i] end
    end
    """

    def test_every_caller_converts_through_the_per_type_converter(
            self, cbackend, monkeypatch):
        """``_invoke`` and both prepared callers use
        ``CompiledFunction._converter(ty)``, which hands every array to the
        table; only the handle's ``entry`` keeps a native array from it,
        and what it refuses (here a read-only array) re-runs on
        ``_invoke``."""
        seen = []
        convert.pointer_address(np.zeros(1), self.PD)  # numpy joins the table
        entry = convert._POINTER_ENTRIES[np.ndarray]
        monkeypatch.setitem(
            convert._POINTER_ENTRIES, np.ndarray,
            lambda value, ty: seen.append(value) or entry(value, ty))
        h = terra(self.SCALE).mark_chunked().compile(cbackend)
        assert h.converters[2:] == [CompiledFunction._converter(self.PD)] * 2
        x, y = np.arange(4.0), np.zeros(4)
        x.flags.writeable = False
        h(4, 1.0, x, y)                         # entry, then the checked call
        h._invoke((4, 2.0, x, y))               # the checked call
        h.tail_caller(2, x, y)(4, 3.0)          # Orion's strip form
        h.chunk_caller(4, 4.0, x, y)(0, 4)      # parallel_for's
        assert [v is x for v in seen] == [True, False] * 4
        assert list(y) == [0.0, 4.0, 8.0, 12.0]
        seen.clear()
        h(4, 1.0, np.arange(4.0), y)            # entry's own fast path
        assert seen == [] and list(y) == [0.0, 1.0, 2.0, 3.0]
        with pytest.raises(FFIError, match=r"scale\(\) takes 2 arguments, "
                           "got 1"):
            h.tail_caller(2, x)

    def test_prepared_callers_keep_their_arrays_alive(self, cbackend):
        h = terra(self.SCALE).mark_chunked().compile(cbackend)
        y = np.zeros(4)
        for prepare, run in [
                (lambda x: h.chunk_caller(4, 2.0, x, y), lambda r: r(0, 4)),
                (lambda x: h.tail_caller(2, x, y), lambda r: r(4, 2.0))]:
            x = np.arange(4.0) + 1
            caller, ref = prepare(x), weakref.ref(x)
            del x
            gc.collect()
            assert ref() is not None
            y[:] = 0
            run(caller)
            assert list(y) == [2.0, 4.0, 6.0, 8.0]
            del caller
            gc.collect()
            assert ref() is None


class TestStructArgsEndToEnd:
    def test_struct_by_value_arg(self, backend):
        S = struct("struct ArgS { a : int, b : double }")
        f = terra("terra f(s : ArgS) : double return s.a + s.b end",
                  env={"ArgS": S})
        assert f.compile(backend)({"a": 2, "b": 0.5}) == 2.5
        assert f.compile(backend)((3, 1.5)) == 4.5

    def test_struct_return_to_python(self, backend):
        S = struct("struct RetS { a : int, b : double }")
        f = terra("terra f() : RetS return RetS { 7, 1.25 } end",
                  env={"RetS": S})
        out = f.compile(backend)()
        assert isinstance(out, CStruct)
        assert out.a == 7 and out.b == 1.25

    def test_cstruct_roundtrip_through_call(self, backend):
        S = struct("struct RtS { a : int }")
        fns = terra("""
        terra make(v : int) : RtS return RtS { v } end
        terra read(s : RtS) : int return s.a end
        """, env={"RtS": S})
        s = fns.make.compile(backend)(11)
        assert fns.read.compile(backend)(s) == 11

    def test_pointer_return_wrapped(self, backend):
        std = __import__("repro").includec("stdlib.h")
        f = terra("""
        terra f() : &int
          var p = [&int](std.malloc(4))
          @p = 5
          return p
        end
        terra g(p : &int) : int
          var v = @p
          std.free(p)
          return v
        end
        """, env={"std": std})
        p = f.f.compile(backend)()
        assert isinstance(p, CPointer)
        assert f.g.compile(backend)(p) == 5


class TestAggregateEdges:
    def test_struct_containing_array_roundtrip(self, backend):
        S = struct("struct ArrInS { tag : int, values : double[3] }")
        fns = terra("""
        terra make(a : double, b : double, c : double) : ArrInS
          var s : ArrInS
          s.tag = 7
          s.values[0] = a
          s.values[1] = b
          s.values[2] = c
          return s
        end
        terra total(s : ArrInS) : double
          return s.values[0] + s.values[1] + s.values[2]
        end
        """, env={"ArrInS": S})
        s = fns.make.compile(backend)(1.0, 2.0, 3.5)
        assert s.tag == 7
        assert s.field("values").totuple() == (1.0, 2.0, 3.5)
        assert fns.total.compile(backend)(s) == 6.5

    def test_struct_arg_from_dict_with_array(self, backend):
        S = struct("struct ArrInS2 { values : int[4] }")
        f = terra("""
        terra f(s : ArrInS2) : int
          var t = 0
          for i = 0, 4 do t = t + s.values[i] end
          return t
        end
        """, env={"ArrInS2": S})
        assert f.compile(backend)({"values": [1, 2, 3, 4]}) == 10

    def test_nested_struct_byval(self, backend):
        inner = struct("struct NIn { x : int8, y : int64 }")
        outer = struct("struct NOut { a : NIn, b : int16 }",
                       env={"NIn": inner})
        f = terra("""
        terra f(o : NOut) : int64
          return o.a.x + o.a.y + o.b
        end
        """, env={"NOut": outer})
        assert f.compile(backend)({"a": {"x": 1, "y": 10}, "b": 100}) == 111
