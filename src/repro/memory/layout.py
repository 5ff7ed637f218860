"""Typed load/store: converting Terra values to/from raw bytes.

The interpreter backend represents every lvalue as an address in flat
memory; this module packs and unpacks values of any Terra type at those
addresses using exactly the layout rules of :mod:`repro.core.types`
(which in turn match the x86-64 C ABI that the gcc backend uses).  The
differential tests rely on the two backends agreeing byte-for-byte.

Primitive values are plain Python ``int``/``float``/``bool``; pointers are
integers (addresses); vectors are lists; aggregates (structs, arrays) are
raw ``bytes`` blobs so that aggregate copy semantics match C.
"""

from __future__ import annotations

import math as _math
import struct as _struct

from ..core import types as T
from ..errors import TrapError

_INT_FORMATS = {
    (1, True): "<b", (1, False): "<B",
    (2, True): "<h", (2, False): "<H",
    (4, True): "<i", (4, False): "<I",
    (8, True): "<q", (8, False): "<Q",
}


def wrap_int(value: int, ty: T.PrimitiveType) -> int:
    """Reduce ``value`` modulo the type's range (C wrap-around semantics)."""
    bits = ty.bytes * 8
    value &= (1 << bits) - 1
    if ty.signed and value >= (1 << (bits - 1)):
        value -= 1 << bits
    return value


def round_float(value: float, ty: T.PrimitiveType) -> float:
    """Round a Python float to the precision of the Terra float type.

    Values whose magnitude exceeds the float32 range overflow to ±inf,
    exactly as a hardware double→float conversion does; CPython's
    ``struct.pack`` would raise ``OverflowError`` instead."""
    if ty is T.float32:
        try:
            return _struct.unpack("<f", _struct.pack("<f", value))[0]
        except OverflowError:
            return _math.inf if value > 0 else -_math.inf
    return float(value)


def pack_primitive(value, ty: T.PrimitiveType) -> bytes:
    if ty.islogical():
        return b"\x01" if value else b"\x00"
    if ty.isintegral():
        return _struct.pack(_INT_FORMATS[(ty.bytes, ty.signed)],
                            wrap_int(int(value), ty))
    fmt = "<f" if ty is T.float32 else "<d"
    return _struct.pack(fmt, round_float(float(value), ty))


def unpack_primitive(data: bytes, ty: T.PrimitiveType):
    if ty.islogical():
        return data[0] != 0
    if ty.isintegral():
        return _struct.unpack(_INT_FORMATS[(ty.bytes, ty.signed)], data)[0]
    fmt = "<f" if ty is T.float32 else "<d"
    return _struct.unpack(fmt, data)[0]


def pack_value(value, ty: T.Type) -> bytes:
    """Serialize ``value`` of Terra type ``ty`` to exactly ``ty.sizeof()`` bytes."""
    if isinstance(ty, T.PrimitiveType):
        return pack_primitive(value, ty)
    if ty.ispointer():
        return _struct.pack("<Q", int(value) & 0xFFFFFFFFFFFFFFFF)
    if ty.isvector():
        assert isinstance(ty, T.VectorType)
        if len(value) != ty.count:
            raise TrapError(
                f"vector value of length {len(value)} for type {ty}")
        raw = b"".join(pack_primitive(v, ty.elem) for v in value)
        return raw.ljust(ty.sizeof(), b"\x00")
    if ty.isaggregate():
        if not isinstance(value, (bytes, bytearray)):
            raise TrapError(f"aggregate value for {ty} must be bytes, got {type(value)}")
        if len(value) != ty.sizeof():
            raise TrapError(
                f"aggregate blob of {len(value)} bytes for {ty} "
                f"(expected {ty.sizeof()})")
        return bytes(value)
    raise TrapError(f"cannot pack value of type {ty}")


def unpack_value(data: bytes, ty: T.Type):
    if isinstance(ty, T.PrimitiveType):
        return unpack_primitive(data, ty)
    if ty.ispointer():
        return _struct.unpack("<Q", data)[0]
    if ty.isvector():
        assert isinstance(ty, T.VectorType)
        esize = ty.elem.sizeof()
        return [unpack_primitive(data[i * esize:(i + 1) * esize], ty.elem)
                for i in range(ty.count)]
    if ty.isaggregate():
        return bytes(data)
    raise TrapError(f"cannot unpack value of type {ty}")


def zero_value(ty: T.Type):
    """The zero-initialized value of a type (Terra zero-initializes ``var``
    declarations without initializers, matching real Terra's behaviour)."""
    if isinstance(ty, T.PrimitiveType):
        if ty.islogical():
            return False
        return 0 if ty.isintegral() else 0.0
    if ty.ispointer():
        return 0
    if ty.isvector():
        assert isinstance(ty, T.VectorType)
        z = False if ty.elem.islogical() else (0 if ty.elem.isintegral() else 0.0)
        return [z] * ty.count
    if ty.isaggregate():
        return bytes(ty.sizeof())
    raise TrapError(f"no zero value for type {ty}")


class TypedMemory:
    """Convenience wrapper: typed load/store over a checked memory."""

    def __init__(self, memory):
        self.memory = memory

    def load(self, addr: int, ty: T.Type):
        return unpack_value(self.memory.read(addr, ty.sizeof()), ty)

    def store(self, addr: int, value, ty: T.Type) -> None:
        self.memory.write(addr, pack_value(value, ty))

    def load_field(self, base: int, struct_ty: T.StructType, field: str):
        off = struct_ty.offsetof(field)
        return self.load(base + off, struct_ty.entry_type(field))

    def store_field(self, base: int, struct_ty: T.StructType, field: str,
                    value) -> None:
        off = struct_ty.offsetof(field)
        self.store(base + off, value, struct_ty.entry_type(field))
