"""cdata — Terra values held by Python code.

The analog of LuaJIT-FFI cdata objects (paper §4.2): pointers and
aggregate values that cross the Terra↔Python boundary are wrapped so that
Python code can hold them, pass them back to Terra functions, and inspect
struct fields without losing type information.
"""

from __future__ import annotations

from ..core import types as T
from ..errors import FFIError
from ..memory import layout


class CPointer:
    """A typed pointer value (an address in the executing backend's address
    space).  ``keepalive`` pins any Python object that owns the memory."""

    __slots__ = ("type", "address", "keepalive")

    def __init__(self, type: T.Type, address: int, keepalive=None):  # noqa: A002
        if not type.ispointer():
            raise FFIError(f"CPointer requires a pointer type, got {type}")
        self.type = type
        self.address = int(address)
        self.keepalive = keepalive

    def isnull(self) -> bool:
        return self.address == 0

    def __int__(self) -> int:
        return self.address

    def __bool__(self) -> bool:
        return not self.isnull()

    def __eq__(self, other) -> bool:
        if isinstance(other, CPointer):
            return self.address == other.address
        if isinstance(other, int):
            return self.address == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.address)

    def __repr__(self) -> str:
        return f"<cdata {self.type} {self.address:#x}>"


class CStruct:
    """An aggregate (struct/array/tuple) value as a blob of bytes with the
    Terra type's layout.  Field access unpacks on demand."""

    __slots__ = ("type", "blob")

    def __init__(self, type: T.Type, blob: bytes):  # noqa: A002
        if not type.isaggregate():
            raise FFIError(f"CStruct requires an aggregate type, got {type}")
        if len(blob) != type.sizeof():
            raise FFIError(
                f"blob of {len(blob)} bytes does not match sizeof({type}) "
                f"= {type.sizeof()}")
        self.type = type
        self.blob = bytes(blob)

    def field(self, name: str):
        ty = self.type
        if not isinstance(ty, T.StructType):
            raise FFIError(f"{ty} has no named fields")
        ftype = ty.entry_type(name)
        if ftype is None:
            raise FFIError(f"struct {ty} has no field {name!r}")
        off = ty.offsetof(name)
        raw = self.blob[off:off + ftype.sizeof()]
        return blob_to_python(raw, ftype)

    def element(self, index: int):
        ty = self.type
        if not isinstance(ty, T.ArrayType):
            raise FFIError(f"{ty} is not an array")
        if not 0 <= index < ty.count:
            raise FFIError(f"index {index} out of bounds for {ty}")
        esize = ty.elem.sizeof()
        raw = self.blob[index * esize:(index + 1) * esize]
        return blob_to_python(raw, ty.elem)

    def totuple(self):
        ty = self.type
        if isinstance(ty, T.ArrayType):
            return tuple(self.element(i) for i in range(ty.count))
        assert isinstance(ty, T.StructType)
        return tuple(self.field(e.field) for e in ty.entries)

    def __getattr__(self, name: str):
        if name.startswith("_") or name in ("type", "blob"):
            raise AttributeError(name)
        try:
            return self.field(name)
        except FFIError as exc:
            raise AttributeError(str(exc)) from exc

    def __getitem__(self, index: int):
        return self.element(index)

    def __repr__(self) -> str:
        return f"<cdata {self.type} ({self.type.sizeof()} bytes)>"


def blob_to_python(raw: bytes, ty: T.Type):
    """The Python value of the bytes ``raw`` read as Terra type ``ty``."""
    if ty.isaggregate():
        return CStruct(ty, raw)
    value = layout.unpack_value(raw, ty)
    if ty.ispointer():
        return CPointer(ty, value)
    return value
