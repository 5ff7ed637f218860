"""Python ↔ Terra value conversion at call boundaries.

The analog of the paper's use of LuaJIT's FFI: "we use LuaJIT's foreign
function interface to translate values between Lua and Terra both along
function call boundaries and during specialization."  Here:

* Python ints/floats/bools convert to the corresponding primitives
  (with C wrap-around semantics for out-of-range integers),
* ``str``/``bytes`` convert to ``rawstring`` (NUL-terminated buffers kept
  alive for the duration of the call),
* NumPy arrays convert to pointers to their element type — the main way
  benchmark data reaches Terra kernels.  Everything a pointer parameter
  takes is one table keyed by the value's type (:func:`pointer_address`);
  an integer is an address only in ``0 … 2**64-1``.  A call from Python
  takes the common case — a writable, C-contiguous ``np.ndarray`` of the
  pointee's native dtype — inside the C handle's ``entry``, the one frame
  between the caller and ctypes, on two identity tests and one
  ``from_buffer``, and hands every other value to this table,
* importing this module does not import numpy: an array or a numpy
  integer can only arrive from a process that has loaded it, so numpy's
  types join the pointer table the first time it meets a type it does not
  know while numpy is loaded, and the dtype tables (:func:`native_dtypes`)
  import numpy at their first use,
* dicts/tuples convert to structs when they provide the required fields
  (the paper: "Lua tables can be converted into structs when they contain
  the required fields"),
* pointers and aggregates returned to Python are wrapped as cdata.

This is the one call contract of both backends: every handle binds its
arguments through :func:`converter` and reads its result through
:func:`returner`, and a Python callback Terra calls runs behind
:func:`callback_runner`, the same tables the other way round.
"""

from __future__ import annotations

import ctypes
import operator
import sys
import weakref
from functools import cache

from ..core import types as T
from ..errors import FFIError
from ..memory import layout
from .cdata import CPointer, CStruct, blob_to_python  # noqa: F401

_NUMPY_NAMES = {
    "int8": T.int8, "int16": T.int16, "int32": T.int32, "int64": T.int64,
    "uint8": T.uint8, "uint16": T.uint16, "uint32": T.uint32,
    "uint64": T.uint64, "float32": T.float32, "float64": T.float64,
    "bool": T.bool_,
}


@cache
def _numpy_types() -> dict:
    """Primitive by ``dtype.num`` (``.name`` builds a string per lookup), one
    row per type code: C integer types that share a name (``l``, ``q``) each
    have a number."""
    import numpy as np
    return {np.dtype(code).num: _NUMPY_NAMES[np.dtype(code).name]
            for code in np.typecodes["AllInteger"] + "fd?"}


@cache
def native_dtypes() -> dict:
    """Primitive -> the dtype numpy gives its arrays by default (``int64`` is
    ``'l'`` here, not ``'q'``): the identity the C handle's ``entry`` tests.
    Built, and numpy imported, at the first call."""
    import numpy as np
    return {ty: np.dtype(name) for name, ty in _NUMPY_NAMES.items()}


def python_to_blob(value, ty: T.Type) -> bytes:
    """Serialize a Python value as the in-memory bytes of Terra type ``ty``
    (used for struct arguments, globals and constants)."""
    if isinstance(value, CStruct):
        if value.type is not ty:
            raise FFIError(f"cdata of type {value.type} where {ty} expected")
        return value.blob
    if isinstance(ty, T.StructType):
        ty.complete()
        blob = bytearray(ty.sizeof())
        if isinstance(value, dict):
            # union members are alternatives: at most one may be given
            missing = [e.field for e in ty.entries
                       if e.field not in value and e.union_group is None]
            if missing:
                raise FFIError(
                    f"dict for struct {ty} is missing fields: {missing}")
            items = [(e, value[e.field]) for e in ty.entries
                     if e.field in value]
        elif isinstance(value, (tuple, list)):
            if len(value) != len(ty.entries):
                raise FFIError(
                    f"{len(value)} values for struct {ty} with "
                    f"{len(ty.entries)} fields")
            items = list(zip(ty.entries, value))
        else:
            raise FFIError(
                f"cannot convert {type(value).__name__} to struct {ty}")
        for entry, v in items:
            off = ty.offsetof(entry.field)
            raw = python_to_blob(v, entry.type)
            blob[off:off + len(raw)] = raw
        return bytes(blob)
    if isinstance(ty, T.ArrayType):
        values = list(value)
        if len(values) != ty.count:
            raise FFIError(f"{len(values)} values for array type {ty}")
        return b"".join(python_to_blob(v, ty.elem) for v in values)
    if ty.ispointer():
        addr, _keep = pointer_address(value, ty)
        return layout.pack_value(addr, ty)
    if isinstance(ty, T.VectorType):
        return layout.pack_value(list(value), ty)
    return layout.pack_value(value, ty)


# -- pointer parameters: entry(value, ty) -> (address, keepalive), by type ---

NO_BYTES = ctypes.c_char * 0


def _int_pointer(value, ty):
    address = int(value)
    if not 0 <= address < 1 << 64:
        raise FFIError(f"address {address} out of range for pointer type {ty}")
    return address, None


def _ndarray_pointer(arr, ty):
    """The one validation of an ndarray bound to a pointer parameter
    (C-contiguous; for ``&primitive``, that element type in native byte
    order), then its address; the interpreter maps its bytes on the checks."""
    flags = arr.flags
    if not flags.c_contiguous:
        raise FFIError("numpy arrays passed to Terra must be C-contiguous")
    pointee = ty.pointee
    if isinstance(pointee, T.PrimitiveType):
        dtype = arr.dtype
        expected = _numpy_types().get(dtype.num)
        if expected is None:
            raise FFIError(f"no Terra type for numpy dtype {dtype}")
        if expected is not pointee or not dtype.isnative:
            raise FFIError(
                f"numpy array of dtype {dtype} passed where "
                f"&{pointee} expected")
    if flags.writeable:     # from_buffer refuses a read-only exporter
        return ctypes.addressof(NO_BYTES.from_buffer(arr)), arr
    return arr.ctypes.data, arr


def _bytes_pointer(value, ty):
    buf = ctypes.create_string_buffer(bytes(value), len(value) + 1)
    return ctypes.addressof(buf), buf


def _bytearray_pointer(value, ty):
    """Its own storage, so a kernel's writes land in it (an ndarray's do)."""
    buf = (ctypes.c_char * len(value)).from_buffer(value)
    return ctypes.addressof(buf), buf


def _duck_pointer(value, ty):
    """The last resort, for a type no entry covers: ctypes' own duck type."""
    if hasattr(value, "_as_parameter_"):
        return _int_pointer(value._as_parameter_, ty)[0], value
    raise FFIError(
        f"cannot convert {type(value).__name__} to pointer type {ty}")


_POINTER_ENTRIES = {
    type(None): lambda value, ty: (0, None),
    CPointer: lambda value, ty: (value.address, value.keepalive),
    int: _int_pointer,
    bytes: _bytes_pointer,
    bytearray: _bytearray_pointer,
    str: lambda value, ty: _bytes_pointer(value.encode("utf-8"), ty),
    ctypes.Array: lambda value, ty: (ctypes.addressof(value), value),
    ctypes.Structure: lambda value, ty: (ctypes.addressof(value), value),
}
#: subclass -> entry of its first base in the table (the MRO, walked once);
#: weak, because ctypes makes and frees an array class per length
_DERIVED_ENTRIES = weakref.WeakKeyDictionary()


def pointer_address(value, ty: T.Type) -> tuple[int, object]:
    """Resolve ``value`` to (address, keepalive) for a pointer parameter."""
    cls = type(value)
    entry = _POINTER_ENTRIES.get(cls) or _DERIVED_ENTRIES.get(cls)
    if entry is None:
        np = sys.modules.get("numpy")
        if np is not None and np.ndarray not in _POINTER_ENTRIES:
            # the first type met since numpy loaded: numpy's types join the
            # table, and no walk made without them stands
            _POINTER_ENTRIES[np.integer] = _int_pointer
            _POINTER_ENTRIES[np.ndarray] = _ndarray_pointer
            _DERIVED_ENTRIES.clear()
        entry = _DERIVED_ENTRIES[cls] = next(
            (_POINTER_ENTRIES[base] for base in cls.__mro__
             if base in _POINTER_ENTRIES), _duck_pointer)
    return entry(value, ty)


def buffer_span(value, kept):
    """``(bytes, writable, owner)`` of the process buffer pointer argument
    ``value`` names, off ``kept``, its entry's keep-alive (the buffer, or a
    ``bytes``/``str``'s NUL-terminated copy); the bytes live while
    ``owner`` does — for an ndarray view, the array whose bytes it shares,
    which the view keeps alive.  None for a machine address (None,
    ``int``, ``CPointer``, ``_as_parameter_``)."""
    if isinstance(value, CPointer):     # an address, whatever owns it
        return None
    if isinstance(kept, (ctypes.Array, ctypes.Structure)):
        # C can read the NUL CPython ends a bytearray's storage with
        return ctypes.sizeof(kept) + isinstance(value, bytearray), True, kept
    np = sys.modules.get("numpy")       # an array implies a loaded numpy
    if np is not None and isinstance(kept, np.ndarray):
        owner = kept
        while isinstance(owner.base, np.ndarray):
            owner = owner.base
        return kept.nbytes, kept.flags.writeable, owner
    return None


def python_to_primitive(value, ty: T.PrimitiveType):
    """``value`` as a scalar parameter's machine value — the one accepted
    set, which ctypes' ``argtypes`` (the C call plan's native arguments)
    share: truthiness for ``bool``; for an integer type ``__index__`` or a
    whole float, wrapped; for a float type ``__float__`` or ``__index__``
    (not ``str``, which ``float()`` parses), rounded.  A ctypes scalar
    stands for its ``.value``, ``_as_parameter_`` for its owner."""
    if ty.islogical():
        return bool(value)
    try:
        if ty.isintegral():
            if isinstance(value, float) and value.is_integer():
                value = int(value)
            return layout.wrap_int(operator.index(value), ty)
        if hasattr(value, "__float__") or hasattr(value, "__index__"):
            return layout.round_float(float(value), ty)
    except (TypeError, OverflowError):      # no __index__; 10**400 to double
        pass
    inner = value.value if isinstance(value, ctypes._SimpleCData) \
        else getattr(value, "_as_parameter_", value)
    if inner is not value:
        return python_to_primitive(inner, ty)
    raise FFIError(f"cannot convert {value!r} to {ty}")


# -- the call contract: a converter and a returner per type ------------------

@cache      # per type (as immortal as its FunctionTypes), not per handle
def converter(ty: T.Type):
    """``convert(value, keep) -> machine argument`` for a ``ty`` parameter:
    a scalar's value, a pointer's address (its keep-alive appended to
    ``keep``), an aggregate's ctypes copy."""
    if isinstance(ty, T.PrimitiveType):
        return lambda value, keep: python_to_primitive(value, ty)
    if ty.ispointer():     # argtypes is c_void_p: an int is the argument
        def to_pointer(value, keep):
            addr, keepalive = pointer_address(value, ty)
            keep.append(keepalive)
            return addr
        return to_pointer
    if ty.isaggregate():
        from ..backend.c.abi import ctype_for
        cls = ctype_for(ty)
        return lambda value, keep: cls.from_buffer_copy(
            python_to_blob(value, ty))
    raise FFIError(f"cannot pass {ty} from Python")


@cache
def returner(ty: T.Type):
    """``read(result) -> Python value`` for a machine value of type ``ty``;
    None where the value already is one (numbers, unit)."""
    if isinstance(ty, T.PrimitiveType):
        return bool if ty.islogical() else None     # c_uint8 reads an int
    if ty.ispointer():
        return lambda result: CPointer(ty, int(result))
    if isinstance(ty, T.TupleType):
        return None if ty.isunit() else \
            lambda result: CStruct(ty, bytes(result)).totuple()
    if ty.isaggregate():
        return lambda result: CStruct(ty, bytes(result))
    raise FFIError(f"cannot return {ty} to Python")


@cache       # per callback, which both backends keep for their lifetime
def callback_runner(callback):
    """``run(*machine arguments) -> machine result``: the contract the other
    way round, for a Python callback Terra calls.  Each argument reads as a
    call's result reads (a pointer a ``CPointer``, a struct a ``CStruct``);
    the result converts as an argument does, or is dropped for unit."""
    ftype = callback.type
    rettype = ftype.returntype
    unit = isinstance(rettype, T.TupleType) and rettype.isunit()
    readers = [returner(ty) for ty in ftype.parameters]
    to_machine = None if unit else converter(rettype)

    def run(*args):
        result = callback.fn(*[arg if read is None else read(arg)
                               for read, arg in zip(readers, args)])
        return None if unit else to_machine(result, [])
    return run
