"""In-struct union tests (Terra's ``union { ... }`` blocks)."""

import pytest

from repro import struct, terra
from repro.core import types as T


def make_value():
    return struct("""
    struct Value {
      tag : int
      union {
        i : int64
        d : double
        p : &int8
      }
    }
    """)


class TestUnionLayout:
    def test_members_share_offset(self):
        V = make_value()
        assert V.offsetof("i") == V.offsetof("d") == V.offsetof("p")

    def test_size_is_max_member(self):
        V = make_value()
        # tag(4) + pad(4) + union(8) = 16
        assert V.sizeof() == 16

    def test_union_after_field(self):
        V = make_value()
        assert V.offsetof("tag") == 0
        assert V.offsetof("i") == 8

    def test_mixed_sizes(self):
        S = struct("struct U2 { union { small : int8, big : int64[4] } }")
        assert S.sizeof() == 32
        assert S.offsetof("small") == S.offsetof("big") == 0

    def test_programmatic_add_union(self):
        S = T.StructType("PU")
        S.add_entry("tag", T.int32)
        S.add_union([("a", T.float32), ("b", T.uint32)])
        assert S.offsetof("a") == S.offsetof("b") == 4

    def test_two_unions(self):
        S = struct("""
        struct U3 {
          union { a : int32, b : float }
          union { c : int64, d : double }
        }
        """)
        assert S.offsetof("a") == S.offsetof("b") == 0
        assert S.offsetof("c") == S.offsetof("d") == 8
        assert S.sizeof() == 16


class TestUnionSemantics:
    def test_members_alias(self, backend):
        V = make_value()
        f = terra("""
        terra f(x : int64) : int64
          var v : Value
          v.tag = 1
          v.i = x
          -- reinterpret through the other member and back
          var bits = v.d
          v.d = bits
          return v.i
        end
        """, env={"Value": V})
        assert f.compile(backend)(0x12345678) == 0x12345678

    def test_type_punning_float_bits(self, backend):
        S = struct("struct Pun { union { f : float, bits : uint32 } }")
        f = terra("""
        terra f() : uint32
          var p : Pun
          p.f = 1.0f
          return p.bits
        end
        """, env={"Pun": S})
        assert f.compile(backend)() == 0x3F800000  # IEEE 754 for 1.0f

    def test_ffi_struct_with_union(self):
        V = make_value()
        f = terra("""
        terra f(v : Value) : int64
          if v.tag == 0 then return v.i end
          return 0
        end
        """, env={"Value": V})
        assert f({"tag": 0, "i": 99}) == 99

    def test_tagged_value_roundtrip(self, backend):
        V = make_value()
        fns = terra("""
        terra make_int(x : int64) : Value
          var v : Value
          v.tag = 0
          v.i = x
          return v
        end
        terra make_double(x : double) : Value
          var v : Value
          v.tag = 1
          v.d = x
          return v
        end
        terra as_double(v : Value) : double
          if v.tag == 1 then return v.d end
          return [double](v.i)
        end
        """, env={"Value": V})
        b = backend
        assert fns.as_double.compile(b)(
            fns.make_int.compile(b)(21)) == 21.0
        assert fns.as_double.compile(b)(
            fns.make_double.compile(b)(2.5)) == 2.5
