"""Terra's type system, reproduced as first-class Python objects.

In the paper, "Terra types are Lua values" (Section 4.1, *Mechanisms for
type reflection*).  Here they are Python values: ordinary objects that user
code can inspect (``t.ispointer()``, ``t.isstruct()``), construct
programmatically (``pointer(float)``, ``vector(double, 4)``), and attach
behaviour to (struct ``entries``, ``methods`` and ``metamethods`` tables).

The layout rules (sizeof / alignof / field offsets) follow the natural
alignment rules of the C ABI on x86-64 so that the interpreter backend and
the gcc-compiled backend agree byte-for-byte on every type.
"""

from __future__ import annotations

import zlib
from typing import Iterable, Sequence

from ..errors import TypeCheckError


def _round_up(offset: int, align: int) -> int:
    return (offset + align - 1) & ~(align - 1)


class Type:
    """Base class of all Terra types.

    Provides the reflection API of the full Terra language.  Each query
    defaults to False/None and is overridden by the relevant subclass.
    """

    #: cached (size, align); computed lazily because struct layout may be
    #: finalized by a metamethod at first use (paper Section 6.3.1).
    _layout: tuple[int, int] | None = None

    # -- reflection queries (match Terra's type API) ----------------------
    def isprimitive(self) -> bool:
        return False

    def isintegral(self) -> bool:
        return False

    def isfloat(self) -> bool:
        return False

    def isarithmetic(self) -> bool:
        return self.isintegral() or self.isfloat()

    def islogical(self) -> bool:
        return False

    def ispointer(self) -> bool:
        return False

    def isarray(self) -> bool:
        return False

    def isvector(self) -> bool:
        return False

    def isstruct(self) -> bool:
        return False

    def isfunction(self) -> bool:
        return False

    def isunit(self) -> bool:
        """True for the empty tuple type ``{}`` used as a 'void' return."""
        return False

    def istuple(self) -> bool:
        return False

    def isaggregate(self) -> bool:
        return self.isarray() or self.isstruct()

    # -- layout ------------------------------------------------------------
    def layout(self) -> tuple[int, int]:
        """Return ``(sizeof, alignof)`` in bytes."""
        if self._layout is None:
            self._layout = self._compute_layout()
        return self._layout

    def _compute_layout(self) -> tuple[int, int]:
        raise TypeCheckError(f"type {self} has no layout")

    def sizeof(self) -> int:
        return self.layout()[0]

    def alignof(self) -> int:
        return self.layout()[1]

    # -- convenience -------------------------------------------------------
    def __repr__(self) -> str:
        return str(self)


class PrimitiveType(Type):
    """An integer, floating-point or boolean machine type.

    Instances are interned singletons (``int32 is int32``) so identity
    equality works the way Terra programmers expect.
    """

    __slots__ = ("name", "kind", "bytes", "signed")

    KIND_INTEGER = "integer"
    KIND_FLOAT = "float"
    KIND_LOGICAL = "logical"

    def __init__(self, name: str, kind: str, nbytes: int, signed: bool):
        self.name = name
        self.kind = kind
        self.bytes = nbytes
        self.signed = signed

    def isprimitive(self) -> bool:
        return True

    def isintegral(self) -> bool:
        return self.kind == self.KIND_INTEGER

    def isfloat(self) -> bool:
        return self.kind == self.KIND_FLOAT

    def islogical(self) -> bool:
        return self.kind == self.KIND_LOGICAL

    def _compute_layout(self) -> tuple[int, int]:
        return (self.bytes, self.bytes)

    def min_value(self) -> int:
        if not self.isintegral():
            raise TypeCheckError(f"{self} has no integer range")
        return -(1 << (self.bytes * 8 - 1)) if self.signed else 0

    def max_value(self) -> int:
        if not self.isintegral():
            raise TypeCheckError(f"{self} has no integer range")
        bits = self.bytes * 8 - (1 if self.signed else 0)
        return (1 << bits) - 1

    def __str__(self) -> str:
        return self.name


# The primitive types of Terra.  ``int`` is 32-bit (as in Terra/C) and
# ``long``/``intptr`` are 64-bit on the x86-64 ABI we target.
int8 = PrimitiveType("int8", PrimitiveType.KIND_INTEGER, 1, True)
int16 = PrimitiveType("int16", PrimitiveType.KIND_INTEGER, 2, True)
int32 = PrimitiveType("int32", PrimitiveType.KIND_INTEGER, 4, True)
int64 = PrimitiveType("int64", PrimitiveType.KIND_INTEGER, 8, True)
uint8 = PrimitiveType("uint8", PrimitiveType.KIND_INTEGER, 1, False)
uint16 = PrimitiveType("uint16", PrimitiveType.KIND_INTEGER, 2, False)
uint32 = PrimitiveType("uint32", PrimitiveType.KIND_INTEGER, 4, False)
uint64 = PrimitiveType("uint64", PrimitiveType.KIND_INTEGER, 8, False)
float32 = PrimitiveType("float", PrimitiveType.KIND_FLOAT, 4, True)
float64 = PrimitiveType("double", PrimitiveType.KIND_FLOAT, 8, True)
bool_ = PrimitiveType("bool", PrimitiveType.KIND_LOGICAL, 1, False)

#: aliases matching Terra's spelling
int_ = int32
uint = uint32
long_ = int64
ulong = uint64
float_ = float32
double = float64

_PRIMITIVES_BY_NAME = {
    t.name: t
    for t in (int8, int16, int32, int64, uint8, uint16, uint32, uint64,
              float32, float64, bool_)
}
_PRIMITIVES_BY_NAME.update({
    "int": int32, "uint": uint32, "long": int64, "ulong": uint64,
})


class PointerType(Type):
    """``&T`` — a pointer to ``T``.  Memoized so ``pointer(T)`` is identical
    across call sites."""

    __slots__ = ("pointee",)
    _cache: dict[int, "PointerType"] = {}

    def __new__(cls, pointee: Type):
        cached = cls._cache.get(id(pointee))
        if cached is not None:
            return cached
        self = super().__new__(cls)
        self.pointee = pointee
        cls._cache[id(pointee)] = self
        return self

    def __init__(self, pointee: Type):  # noqa: D401 - memoized in __new__
        pass

    def ispointer(self) -> bool:
        return True

    @property
    def type(self) -> Type:
        """Terra reflection spells the pointee ``t.type``."""
        return self.pointee

    def _compute_layout(self) -> tuple[int, int]:
        return (8, 8)

    def __str__(self) -> str:
        return f"&{self.pointee}"


class ArrayType(Type):
    """``T[N]`` — a fixed-size array *value* type (not a decayed pointer)."""

    __slots__ = ("elem", "count")
    _cache: dict[tuple[int, int], "ArrayType"] = {}

    def __new__(cls, elem: Type, count: int):
        key = (id(elem), count)
        cached = cls._cache.get(key)
        if cached is not None:
            return cached
        if count < 0:
            raise TypeCheckError(f"array length must be non-negative, got {count}")
        self = super().__new__(cls)
        self.elem = elem
        self.count = count
        cls._cache[key] = self
        return self

    def __init__(self, elem: Type, count: int):
        pass

    def isarray(self) -> bool:
        return True

    @property
    def type(self) -> Type:
        return self.elem

    @property
    def N(self) -> int:
        return self.count

    def _compute_layout(self) -> tuple[int, int]:
        size, align = self.elem.layout()
        return (size * self.count, align)

    def __str__(self) -> str:
        return f"{self.elem}[{self.count}]"


class VectorType(Type):
    """``vector(T, N)`` — a fixed-length SIMD vector of a primitive type.

    The paper: "Terra includes fixed-length vectors of basic types (e.g.
    vector(float,4)) to reflect the presence of SIMD units".  Layout follows
    GCC vector extensions: size ``N*sizeof(T)`` rounded to a power of two,
    aligned to its size.
    """

    __slots__ = ("elem", "count")
    _cache: dict[tuple[int, int], "VectorType"] = {}

    def __new__(cls, elem: Type, count: int):
        key = (id(elem), count)
        cached = cls._cache.get(key)
        if cached is not None:
            return cached
        if not isinstance(elem, PrimitiveType):
            raise TypeCheckError(f"vector element must be a primitive type, got {elem}")
        if count <= 0:
            raise TypeCheckError(f"vector length must be positive, got {count}")
        self = super().__new__(cls)
        self.elem = elem
        self.count = count
        cls._cache[key] = self
        return self

    def __init__(self, elem: Type, count: int):
        pass

    def isvector(self) -> bool:
        return True

    def isintegral(self) -> bool:
        return self.elem.isintegral()

    def isfloat(self) -> bool:
        return self.elem.isfloat()

    def islogical(self) -> bool:
        return self.elem.islogical()

    @property
    def type(self) -> Type:
        return self.elem

    @property
    def N(self) -> int:
        return self.count

    def _compute_layout(self) -> tuple[int, int]:
        # size rounds up to a power of two (as GCC/LLVM vectors do), but
        # alignment is the *element* alignment: Terra kernels routinely
        # load vectors from unaligned addresses (e.g. shifted stencil
        # reads), so the C backend emits under-aligned vector types
        # (movups instead of movaps) and the layouts must agree.
        raw = self.elem.sizeof() * self.count
        size = 1
        while size < raw:
            size <<= 1
        return (size, self.elem.sizeof())

    def __str__(self) -> str:
        return f"vector({self.elem},{self.count})"


class StructEntry:
    """One field of a struct: a name and a type.

    Mirrors the ``{ field = ..., type = ... }`` tables the paper inserts
    into ``Complex.entries``.  Entries sharing a ``union_group`` overlay
    at the same offset (Terra's in-struct ``union`` blocks).
    """

    __slots__ = ("field", "type", "union_group")

    def __init__(self, field: str, type: Type,  # noqa: A002 - Terra's name
                 union_group: "int | None" = None):
        self.field = field
        self.type = type
        self.union_group = union_group

    def __repr__(self) -> str:
        return f"StructEntry({self.field!r}, {self.type})"


class StructType(Type):
    """A nominally-typed struct with reflection tables.

    * ``entries``   — ordered list of :class:`StructEntry` (in-memory layout)
    * ``methods``   — dict of name -> Terra function (or anything callable
      through staging); ``obj:m(...)`` desugars to ``T.methods.m(&obj, ...)``
    * ``metamethods`` — compile-time hooks; this reproduction implements
      ``__finalizelayout`` (run once, right before the layout is first
      examined), ``__cast`` (user-defined conversions, see typechecker),
      ``__methodmissing``, and ``__entrymissing``.
    """

    _anon_counter = 0

    def __init__(self, name: str | None = None):
        if name is None:
            StructType._anon_counter += 1
            name = f"anon{StructType._anon_counter}"
        self.name = name
        self.entries: list[StructEntry] = []
        self.methods: dict[str, object] = {}
        self.metamethods: dict[str, object] = {}
        self._finalized = False
        self._in_finalize = False
        self._offsets: dict[str, int] | None = None
        self._defined = False  # set once entries are supplied (or layout runs)

    def isstruct(self) -> bool:
        return True

    # -- construction helpers ---------------------------------------------
    _union_counter = 0

    def add_entry(self, field: str, type: Type) -> "StructType":  # noqa: A002
        if self._finalized and not self._in_finalize:
            raise TypeCheckError(
                f"cannot add entry {field!r} to {self.name}: layout already finalized")
        self.entries.append(StructEntry(field, type))
        return self

    def add_union(self, fields) -> "StructType":
        """Add overlapping fields (Terra's in-struct ``union { ... }``):
        ``s.add_union([("i", int64), ("d", double)])``."""
        if self._finalized and not self._in_finalize:
            raise TypeCheckError(
                f"cannot add a union to {self.name}: layout already finalized")
        StructType._union_counter += 1
        group = StructType._union_counter
        for field, ftype in fields:
            self.entries.append(StructEntry(field, ftype, group))
        return self

    def entry_names(self) -> list[str]:
        return [e.field for e in self.entries]

    def entry_type(self, field: str) -> Type | None:
        self.complete()
        for e in self.entries:
            if e.field == field:
                return e.type
        return None

    def has_entry(self, field: str) -> bool:
        return self.entry_type(field) is not None

    # -- finalization -------------------------------------------------------
    def complete(self) -> "StructType":
        """Run ``__finalizelayout`` (once) and freeze the layout.

        The paper: "This metamethod is called by the Terra typechecker right
        before a type is examined, allowing it to compute the layout of the
        type at the latest possible time."
        """
        if not self._finalized:
            hook = self.metamethods.get("__finalizelayout")
            self._finalized = True  # set first: hook may query own entries
            if hook is not None:
                self._in_finalize = True
                try:
                    hook(self)
                finally:
                    self._in_finalize = False
        return self

    def _compute_layout(self) -> tuple[int, int]:
        self.complete()
        offset = 0
        align = 1
        offsets: dict[str, int] = {}
        i = 0
        entries = self.entries
        while i < len(entries):
            entry = entries[i]
            if entry.union_group is None:
                esize, ealign = entry.type.layout()
                offset = _round_up(offset, ealign)
                offsets[entry.field] = offset
                offset += esize
                align = max(align, ealign)
                i += 1
                continue
            # a run of entries in the same union group overlays at one
            # offset; the union occupies max(size) at max(align)
            group = entry.union_group
            usize, ualign = 0, 1
            j = i
            while j < len(entries) and entries[j].union_group == group:
                esize, ealign = entries[j].type.layout()
                usize = max(usize, esize)
                ualign = max(ualign, ealign)
                j += 1
            offset = _round_up(offset, ualign)
            for k in range(i, j):
                offsets[entries[k].field] = offset
            offset += usize
            align = max(align, ualign)
            i = j
        size = _round_up(offset, align)
        self._offsets = offsets
        return (size, align)

    def offsetof(self, field: str) -> int:
        self.layout()
        assert self._offsets is not None
        if field not in self._offsets:
            raise TypeCheckError(f"struct {self.name} has no field {field!r}")
        return self._offsets[field]

    def __str__(self) -> str:
        return self.name


class FunctionType(Type):
    """``{T1, T2} -> {R}`` — the type of a Terra function.

    ``returns`` is a list: empty for unit, one entry for a single return,
    several for tuple returns.
    """

    __slots__ = ("parameters", "returns", "varargs")
    _cache: dict[tuple, "FunctionType"] = {}

    def __new__(cls, parameters: Sequence[Type], returns: Sequence[Type],
                varargs: bool = False):
        key = (tuple(id(p) for p in parameters),
               tuple(id(r) for r in returns), varargs)
        cached = cls._cache.get(key)
        if cached is not None:
            return cached
        self = super().__new__(cls)
        self.parameters = tuple(parameters)
        self.returns = tuple(returns)
        self.varargs = varargs
        cls._cache[key] = self
        return self

    def __init__(self, parameters, returns, varargs: bool = False):
        pass

    def isfunction(self) -> bool:
        return True

    @property
    def returntype(self) -> Type:
        if len(self.returns) == 0:
            return unit
        if len(self.returns) == 1:
            return self.returns[0]
        return TupleType(self.returns)

    def _compute_layout(self) -> tuple[int, int]:
        raise TypeCheckError("function types have no layout; use a pointer")

    def __str__(self) -> str:
        params = ",".join(str(p) for p in self.parameters)
        if self.varargs:
            params = params + ",..." if params else "..."
        rets = ",".join(str(r) for r in self.returns)
        return f"{{{params}}} -> {{{rets}}}"


class TupleType(StructType):
    """An anonymous struct used for multiple return values.

    Fields are named ``_0, _1, ...`` as in real Terra's tuple lowering.
    """

    _cache: dict[tuple, "TupleType"] = {}

    def __new__(cls, element_types: Sequence[Type]):
        key = tuple(id(t) for t in element_types)
        cached = cls._cache.get(key)
        if cached is not None:
            return cached
        self = super().__new__(cls)
        cls._cache[key] = self
        return self

    def __init__(self, element_types: Sequence[Type]):
        if getattr(self, "_tuple_initialized", False):
            return
        # crc32, not hash(): the name reaches the emitted C, which must not
        # depend on the process (PYTHONHASHSEED) to be a cache hit elsewhere
        names = "_".join(str(t) for t in element_types)
        super().__init__(f"tuple_{len(element_types)}_"
                         f"{zlib.crc32(names.encode()) % 99991}")
        for i, t in enumerate(element_types):
            self.add_entry(f"_{i}", t)
        self.element_types = tuple(element_types)
        self._tuple_initialized = True

    def istuple(self) -> bool:
        return True

    def isunit(self) -> bool:
        return len(self.element_types) == 0

    def __str__(self) -> str:
        return "{" + ",".join(str(t) for t in self.element_types) + "}"


#: the unit type ``{}`` (a zero-element tuple) used as the 'void' return.
unit = TupleType(())


class OpaqueType(Type):
    """A named type with unknown layout (e.g. ``FILE`` from includec)."""

    def __init__(self, name: str):
        self.name = name

    def __str__(self) -> str:
        return self.name


# -- public constructors (the Lua-side API of Terra) -------------------------

def _as_type(t, constructor: str) -> Type:
    """Accept a Terra type or one of Python's int/float/bool class
    objects, which name Terra types throughout (``ptr(float)`` in a
    ``@terra`` annotation is evaluated by Python itself, so the
    constructors must coerce exactly like escapes do)."""
    if isinstance(t, Type):
        return t
    coerced = coerce_to_type(t)
    if coerced is None:
        raise TypeCheckError(f"{constructor}() expects a Terra type, got {t!r}")
    return coerced


def pointer(t: Type) -> PointerType:
    """``&t``: construct a pointer type."""
    return PointerType(_as_type(t, "pointer"))


def array(t: Type, n: int) -> ArrayType:
    """``t[n]``: construct a fixed-size array type."""
    return ArrayType(_as_type(t, "array"), int(n))


def vector(t: Type, n: int) -> VectorType:
    """``vector(t, n)``: construct a SIMD vector type."""
    return VectorType(_as_type(t, "vector"), int(n))


def functype(parameters: Iterable[Type], returns: Iterable[Type] | Type,
             varargs: bool = False) -> FunctionType:
    if isinstance(returns, Type):
        returns = [] if returns is unit else [returns]
    return FunctionType(list(parameters), list(returns), varargs)


def tuple_of(types: Sequence[Type]) -> TupleType:
    return TupleType(tuple(types))


def struct(name: str | None = None,
           entries: Sequence[tuple[str, Type]] | None = None) -> StructType:
    """Create a (possibly empty) struct type programmatically.

    Equivalent to the paper's ``struct Complex {}`` followed by inserting
    into ``Complex.entries``.
    """
    s = StructType(name)
    if entries:
        for field, ftype in entries:
            s.add_entry(field, ftype)
    return s


#: ``rawstring`` — Terra's name for ``&int8`` (C ``char*``).
rawstring = pointer(int8)


def encode(ty: Type):
    """A structural, JSON-able spelling of ``ty``; :func:`decode` inverts it
    to the identical (interned) object.  Nominal types raise
    ``TypeCheckError``: a named struct is its mutable method and metamethod
    tables, not a shape."""
    if isinstance(ty, PrimitiveType):
        return ty.name
    if isinstance(ty, PointerType):
        return ["&", encode(ty.pointee)]
    if isinstance(ty, (ArrayType, VectorType)):
        return ["[]" if ty.isarray() else "vector", encode(ty.elem), ty.count]
    if isinstance(ty, TupleType):
        return ["{}", [encode(t) for t in ty.element_types]]
    if isinstance(ty, FunctionType):
        return ["->", [encode(t) for t in ty.parameters],
                [encode(t) for t in ty.returns], ty.varargs]
    raise TypeCheckError(f"type {ty} has no structural spelling")


def decode(spelling) -> Type:
    if isinstance(spelling, str):
        return _PRIMITIVES_BY_NAME[spelling]
    kind, *rest = spelling
    if kind == "&":
        return PointerType(decode(rest[0]))
    if kind in ("[]", "vector"):
        return (ArrayType if kind == "[]" else VectorType)(
            decode(rest[0]), int(rest[1]))
    if kind == "{}":
        return TupleType(tuple(decode(t) for t in rest[0]))
    if kind == "->":
        return FunctionType([decode(t) for t in rest[0]],
                            [decode(t) for t in rest[1]], bool(rest[2]))
    raise ValueError(f"cannot decode type spelling {spelling!r}")


def coerce_to_type(value) -> "Type | None":
    """Interpret ``value`` as a Terra type where a type is expected.

    Python's builtin ``int``/``float``/``bool`` class objects map onto the
    Terra types of the same *name* (``int``=int32, ``float``=float32,
    ``bool``), so paper-style escapes like ``[&int]`` work even though the
    escape body evaluates as Python."""
    if isinstance(value, Type):
        return value
    if value is int:
        return int32
    if value is float:
        return float32
    if value is bool:
        return bool_
    if value is str:
        return rawstring
    return None


def common_primitive(a: PrimitiveType, b: PrimitiveType) -> PrimitiveType:
    """The usual arithmetic conversions (C semantics) for two primitives."""
    if a is b:
        return a
    if a.isfloat() or b.isfloat():
        if a is float64 or b is float64:
            return float64
        if a.isfloat() and b.isfloat():
            return float32
        # float + integer -> the float type
        return a if a.isfloat() else b
    if a.islogical() or b.islogical():
        raise TypeCheckError(f"no common arithmetic type for {a} and {b}")
    # integer promotion: to the larger; same size, unsigned wins
    if a.bytes != b.bytes:
        bigger = a if a.bytes > b.bytes else b
        smaller = b if a.bytes > b.bytes else a
        if bigger.signed or not smaller.signed:
            return bigger
        # bigger unsigned absorbs smaller signed
        return bigger
    return a if not a.signed else b
