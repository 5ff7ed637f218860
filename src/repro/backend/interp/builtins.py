"""Interpreter implementations of the built-in C library.

The C backend links external functions against the real libc; so does
the interpreter, through ctypes, once it has checked the memory a call
reads and writes (:func:`_libc`): output goes through stdio's buffer and
``exit`` ends the process on both backends.  Python implements only what
owns the interpreter's bookkeeping (``malloc``/``free``) and ``abort``,
whose trap is the interpreter's checked fault.

Each implementation receives ``(machine, args)`` with machine-convention
values (ints/floats/addresses; a variadic argument is the ctypes value of
its type at the call site, as C passes it) and returns a
machine-convention result.
"""

from __future__ import annotations

import ctypes
import re

from ...cinterop.libc import header_table, known_headers
from ...errors import TrapError
from ...memory.flatmem import libc
from ..c import abi

BUILTINS: dict = {}


def builtin(name: str):
    def register(fn):
        BUILTINS[name] = fn
        return fn
    return register


# -- what Python owns: the heap's region bookkeeping, and abort's trap --------

def _heap(op: str):
    return lambda machine, args: getattr(machine.allocator, op)(*args)


for _name in ("malloc", "calloc", "realloc", "free"):
    BUILTINS[_name] = _heap(_name)


@builtin("abort")
def _abort(machine, args):
    raise TrapError("abort() called")


# -- the process's C library, once the checks have passed ----------------------

#: every known C function's declared type, by name
_DECLARED = {name: fn.external_type for header in known_headers()
             for name, fn in header_table(header).items()}
#: the ``FILE*`` values ``fopen`` returned and ``fclose`` has not closed
_FILES: set[int] = set()


def _libc(name: str, check=None):
    """``(machine, args) -> result``: ``name`` in the process's C library,
    called by its declared prototype once ``check(memory, *args)`` has
    passed on the memory it reads and writes."""
    call = abi.prototype(_DECLARED[name])(
        ctypes.cast(getattr(libc, name), ctypes.c_void_p).value)

    def run(machine, args):
        if check is not None:
            check(machine.memory, *args)
        return call(*args)
    return run


def _strings(memory, *addrs):
    for addr in addrs:      # each NUL-terminated inside one region
        memory.read_cstring(addr)


def _copy(memory, dst, src, n):
    memory.check_access(src, n, write=False)
    memory.check_access(dst, n, write=True)


def _compare(memory, a, b, n):
    memory.check_access(a, n, write=False)
    memory.check_access(b, n, write=False)


def _file(memory, fh, *rest):
    if fh not in _FILES:
        raise TrapError(f"invalid FILE* {fh:#x}")


#: one printf conversion: ``*`` width, ``*`` precision, length, conversion
_CONVERSION = re.compile(rb"%[-+ #0']*(\*?)\d*(?:\.(\*?)\d*)?([hlLqjzt]*)(.)",
                         re.S)


def _format(memory, fmt, *varargs):
    """Check a printf format and what it reads: the format and each ``%s``
    argument is a string in a region, a ``*`` or a conversion has an
    argument to read, and ``%n`` (a store) traps."""
    args = iter(varargs)
    for width, precision, length, conv in _CONVERSION.findall(
            memory.read_cstring(fmt)):
        if conv == b"%":
            continue
        if conv not in b"diouxXeEfFgGaAcsp" or conv == b"s" and length:
            raise TrapError(f"printf conversion %{(length + conv).decode()} "
                            f"is not supported")
        for _ in range(len(width) + len(precision) + 1):
            arg = next(args, None)
            if arg is None:
                raise TrapError("printf format reads more arguments than "
                                "were passed")
        if conv == b"s":
            if not isinstance(arg, ctypes.c_uint64):
                raise TrapError("printf %s argument is not a pointer")
            memory.read_cstring(arg.value)


def _transfer(write):
    def check(memory, ptr, size, count, fh):
        _file(memory, fh)
        memory.check_access(ptr, size * count, write)
    return check


for _name, _check in {
        **dict.fromkeys(["srand", "rand", "clock", "exit", "putchar"]),
        "atoi": _strings, "puts": _strings, "printf": _format,
        "memset": lambda m, dst, c, n: m.check_access(dst, n, write=True),
        "memcpy": _copy, "memmove": _copy, "memcmp": _compare,
        "strlen": _strings, "strcmp": _strings,
        "strcpy": lambda m, dst, src: m.check_access(
            dst, len(m.read_cstring(src)) + 1, write=True),
        "fread": _transfer(write=True), "fwrite": _transfer(write=False),
        "fseek": _file, "ftell": _file, "fgetc": _file,
        "fputc": lambda m, c, fh: _file(m, fh),
        **dict.fromkeys(header_table("math.h")),
        }.items():
    BUILTINS[_name] = _libc(_name, _check)


@builtin("fopen")
def _fopen(machine, args, run=_libc("fopen", _strings)):
    fh = run(machine, args)
    if fh:
        _FILES.add(fh)
    return fh


@builtin("fclose")
def _fclose(machine, args, run=_libc("fclose", _file)):
    result = run(machine, args)
    _FILES.discard(args[0])
    return result


@builtin("snprintf")
def _snprintf(machine, args, run=_libc("snprintf")):
    """Sized by ``snprintf(NULL, 0, ...)`` before the bytes it writes are
    checked (all of ``size`` when the format cannot be sized)."""
    dst, size, fmt, *varargs = args
    _format(machine.memory, fmt, *varargs)
    n = run(machine, [0, 0, fmt, *varargs])
    if size:
        machine.memory.check_access(dst, min(size, n + 1) if n >= 0 else size,
                                    write=True)
    return run(machine, args)
