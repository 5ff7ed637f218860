"""Hand-written C baselines, compiled on the fly.

The paper compares generated Terra code against "hand-written C" (Figure
7/8) and against C++-style vtable dispatch (§6.3.1).  This module compiles
baseline C sources with the same gcc flags as the Terra backend, so the
comparison is compiler-fair, and binds them with ctypes.

NumPy arrays pass as pointers; the helper checks dtype/contiguity.
"""

from __future__ import annotations

import ctypes
from types import SimpleNamespace

import numpy as np

from .. import buildd

_CTYPES = {
    "void": None,
    "int": ctypes.c_int32,
    "long": ctypes.c_int64,
    "float": ctypes.c_float,
    "double": ctypes.c_double,
    "ptr": ctypes.c_void_p,
}


class CFunction:
    def __init__(self, cfn, argspec, restype):
        self.cfn = cfn
        self.argspec = argspec
        cfn.restype = _CTYPES[restype]
        cfn.argtypes = [_CTYPES[a] for a in argspec]

    def __call__(self, *args):
        converted = []
        for value, spec in zip(args, self.argspec):
            if spec == "ptr":
                if isinstance(value, np.ndarray):
                    assert value.flags["C_CONTIGUOUS"]
                    converted.append(value.ctypes.data)
                elif value is None:
                    converted.append(None)
                else:
                    converted.append(int(value))
            else:
                converted.append(value)
        return self.cfn(*converted)


def compile_c(source: str, functions: dict[str, tuple],
              flags: tuple[str, ...] = ()) -> SimpleNamespace:
    """Compile C ``source`` and bind ``functions``: name -> (argspec list,
    restype), with types from {void,int,long,float,double,ptr}."""
    so_path = buildd.compile(source, tuple(flags))
    lib = ctypes.CDLL(so_path)
    out = {}
    for name, (argspec, restype) in functions.items():
        out[name] = CFunction(getattr(lib, name), list(argspec), restype)
    return SimpleNamespace(**out)
