"""Built-in C library declarations.

Gives ``includec("stdlib.h")`` etc. their contents: each known header maps
to a set of external Terra functions.  Under the C backend these bind to
the real libc at link time; under the interpreter they dispatch to
:mod:`repro.backend.interp.builtins`, which calls the same libc once the
memory a call reads and writes has been checked.

External function objects are cached so every ``includec`` call (and both
backends) shares the same identity — linking works regardless of which
backend compiles first.
"""

from __future__ import annotations

from ..core import types as T
from ..core.function import TerraFunction

_void = T.unit
_i8p = T.rawstring
_vp = T.pointer(T.OpaqueType("void"))
_FILE = T.pointer(T.OpaqueType("FILE"))

#: header -> {name: (param_types, return_type, varargs)}
_HEADERS: dict[str, dict[str, tuple]] = {
    "stdlib.h": {
        "malloc": ([T.uint64], T.pointer(T.OpaqueType("void"))),
        "calloc": ([T.uint64, T.uint64], T.pointer(T.OpaqueType("void"))),
        "realloc": ([T.pointer(T.OpaqueType("void")), T.uint64],
                    T.pointer(T.OpaqueType("void"))),
        "free": ([T.pointer(T.OpaqueType("void"))], _void),
        "abort": ([], _void),
        "exit": ([T.int32], _void),
        "rand": ([], T.int32),
        "srand": ([T.uint32], _void),
        "atoi": ([_i8p], T.int32),
    },
    "string.h": {
        "memset": ([_vp, T.int32, T.uint64], _vp),
        "memcpy": ([_vp, _vp, T.uint64], _vp),
        "memmove": ([_vp, _vp, T.uint64], _vp),
        "memcmp": ([_vp, _vp, T.uint64], T.int32),
        "strlen": ([_i8p], T.uint64),
        "strcmp": ([_i8p, _i8p], T.int32),
        "strcpy": ([_i8p, _i8p], _i8p),
    },
    "stdio.h": {
        "printf": ([_i8p], T.int32, True),
        "snprintf": ([_i8p, T.uint64, _i8p], T.int32, True),
        "puts": ([_i8p], T.int32),
        "putchar": ([T.int32], T.int32),
        "fopen": ([_i8p, _i8p], _FILE),
        "fclose": ([_FILE], T.int32),
        "fread": ([_vp, T.uint64, T.uint64, _FILE], T.uint64),
        "fwrite": ([_vp, T.uint64, T.uint64, _FILE], T.uint64),
        "fseek": ([_FILE, T.int64, T.int32], T.int32),
        "ftell": ([_FILE], T.int64),
        "fgetc": ([_FILE], T.int32),
        "fputc": ([T.int32, _FILE], T.int32),
    },
    "math.h": {},
    "time.h": {
        "clock": ([], T.int64),
    },
}

for _name in ("sqrt", "fabs", "exp", "log", "sin", "cos", "tan",
              "floor", "ceil", "asin", "acos", "atan"):
    _HEADERS["math.h"][_name] = ([T.float64], T.float64)
    _HEADERS["math.h"][_name + "f"] = ([T.float32], T.float32)
for _name in ("pow", "fmod", "atan2", "fmin", "fmax"):
    _HEADERS["math.h"][_name] = ([T.float64, T.float64], T.float64)
    _HEADERS["math.h"][_name + "f"] = ([T.float32, T.float32], T.float32)

_EXTERNALS: dict[str, TerraFunction] = {}


def external(name: str, params, rettype, varargs: bool = False) -> TerraFunction:
    """Get-or-create the canonical external TerraFunction for ``name``."""
    fn = _EXTERNALS.get(name)
    if fn is None:
        returns = [] if rettype is _void or (
            isinstance(rettype, T.TupleType) and rettype.isunit()) else [rettype]
        ftype = T.FunctionType(list(params), returns, varargs)
        fn = TerraFunction.external(name, ftype)
        _EXTERNALS[name] = fn
    return fn


def known_headers() -> list[str]:
    return sorted(_HEADERS)


def header_table(header: str):
    """All externals declared by one known header, as a namespace dict."""
    decls = _HEADERS.get(header)
    if decls is None:
        return None
    table = {}
    for name, sig in decls.items():
        params, rettype = sig[0], sig[1]
        varargs = bool(sig[2]) if len(sig) > 2 else False
        table[name] = external(name, params, rettype, varargs)
    return table
