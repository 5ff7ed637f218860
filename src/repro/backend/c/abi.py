"""ctypes ABI construction for compiled Terra functions.

Maps Terra types onto ctypes so that compiled functions can be called from
Python: primitives map directly, pointers are 64-bit addresses (a pointer
*parameter* is a ``c_void_p``, which also takes a ctypes buffer object as
it is), and aggregates passed/returned by value get mirrored ctypes.Structure
classes whose layout matches :mod:`repro.core.types` (natural alignment).

Vector types never cross the Python boundary (raise FFIError); they exist
only inside compiled code.
"""

from __future__ import annotations

import ctypes
from functools import cache

from ...core import types as T
from ...errors import FFIError

_PRIM_CTYPES = {
    "int8": ctypes.c_int8, "int16": ctypes.c_int16,
    "int32": ctypes.c_int32, "int64": ctypes.c_int64,
    "uint8": ctypes.c_uint8, "uint16": ctypes.c_uint16,
    "uint32": ctypes.c_uint32, "uint64": ctypes.c_uint64,
    "float": ctypes.c_float, "double": ctypes.c_double,
    "bool": ctypes.c_uint8,
}

_struct_cache: dict[int, type] = {}


def ctype_for(ty: T.Type):
    """The ctypes type for a Terra type (for args/returns by value)."""
    if isinstance(ty, T.PrimitiveType):
        return _PRIM_CTYPES[ty.name]
    if ty.ispointer():
        return ctypes.c_uint64
    if isinstance(ty, T.TupleType) and ty.isunit():
        return None
    if isinstance(ty, T.VectorType):
        raise FFIError(
            f"vector type {ty} cannot cross the Python<->Terra boundary; "
            f"pass a pointer instead")
    if isinstance(ty, T.StructType):
        return _struct_ctype(ty)
    if isinstance(ty, T.ArrayType):
        return _array_ctype(ty)
    raise FFIError(f"no ctypes mapping for {ty}")


def argtype_for(ty: T.Type):
    """The ctypes type of a ``ty`` parameter: :func:`ctype_for`, except that
    a pointer is a ``c_void_p``, which takes an ``int`` address or a
    ``(c_char * 0).from_buffer`` object — results and callback arguments
    keep ``c_uint64``, so Python sees every pointer as an ``int``."""
    return ctypes.c_void_p if ty.ispointer() else ctype_for(ty)


@cache
def prototype(ftype: T.FunctionType):
    """The ctypes function-pointer type of ``ftype``."""
    return ctypes.CFUNCTYPE(ctype_for(ftype.returntype),
                            *[ctype_for(p) for p in ftype.parameters])


#: every trampoline's address (each lives as long as the process)
_trampolines: set[int] = set()


def trampoline(ftype: T.FunctionType, run) -> tuple:
    """``(address, keep-alive)`` of a C function of type ``ftype`` that
    calls ``run`` (a ``TypeError`` for a struct result, which ctypes
    cannot return from one)."""
    wrapper = prototype(ftype)(run)
    address = ctypes.cast(wrapper, ctypes.c_void_p).value
    _trampolines.add(address)
    return address, wrapper


@cache
def _process():
    return ctypes.CDLL(None)


def is_code(address: int) -> bool:
    """Whether ``address`` may be called: a :func:`trampoline`, or an
    address inside an object the process loaded (``dladdr``)."""
    info = (ctypes.c_void_p * 4)()      # room for its Dl_info
    return address in _trampolines or \
        _process().dladdr(ctypes.c_void_p(address), info) != 0


@cache      # one address per callback in the process, for every backend
def callback_address(callback) -> tuple:
    """The :func:`trampoline` of a Python callback."""
    from ...ffi import convert
    return trampoline(callback.type, convert.callback_runner(callback))


def _struct_ctype(ty: T.StructType):
    cached = _struct_cache.get(id(ty))
    if cached is not None:
        return cached
    ty.complete()
    fields = []
    anonymous = []
    i = 0
    entries = ty.entries
    while i < len(entries):
        entry = entries[i]
        if entry.union_group is None:
            fields.append((f"f_{entry.field}", ctype_for(entry.type)))
            i += 1
            continue
        group = entry.union_group
        members = []
        while i < len(entries) and entries[i].union_group == group:
            members.append((f"f_{entries[i].field}",
                            ctype_for(entries[i].type)))
            i += 1
        ucls = type(f"CTU_{ty.name}_{group}", (ctypes.Union,),
                    {"_fields_": members})
        uname = f"u_{group}"
        fields.append((uname, ucls))
        anonymous.append(uname)
    if not fields:
        fields = [("f__empty", ctypes.c_uint8 * 0)]
    cls = type(f"CT_{ty.name}", (ctypes.Structure,),
               {"_fields_": fields, "_anonymous_": tuple(anonymous)})
    if ctypes.sizeof(cls) != ty.sizeof():
        raise FFIError(
            f"ctypes layout mismatch for {ty}: ctypes says "
            f"{ctypes.sizeof(cls)}, Terra says {ty.sizeof()}")
    _struct_cache[id(ty)] = cls
    return cls


def _array_ctype(ty: T.ArrayType):
    cached = _struct_cache.get(id(ty))
    if cached is not None:
        return cached
    cls = type(f"CTA_{ty.count}", (ctypes.Structure,),
               {"_fields_": [("data", ctype_for(ty.elem) * ty.count)]})
    _struct_cache[id(ty)] = cls
    return cls
