"""Interpreter implementations of the built-in C library.

The C backend links external functions against the real libc; so does
the interpreter, through ctypes, once it has checked the memory a call
reads and writes (:func:`_libc`).  Python implements only what owns the
interpreter's bookkeeping (``malloc``/``free``), what must trap
(``abort``/``exit``), and the stdout family.

Each implementation receives ``(machine, args)`` with machine-convention
values (ints/floats/addresses) and returns a machine-convention result.
"""

from __future__ import annotations

import ctypes
import sys

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


# -- stdlib.h ------------------------------------------------------------------

@builtin("malloc")
def _malloc(machine, args):
    return machine.allocator.malloc(int(args[0]))


@builtin("calloc")
def _calloc(machine, args):
    return machine.allocator.calloc(int(args[0]), int(args[1]))


@builtin("realloc")
def _realloc(machine, args):
    return machine.allocator.realloc(int(args[0]), int(args[1]))


@builtin("free")
def _free(machine, args):
    machine.allocator.free(int(args[0]))
    return None


@builtin("abort")
def _abort(machine, args):
    raise TrapError("abort() called")


@builtin("exit")
def _exit(machine, args):
    raise TrapError(f"exit({int(args[0])}) called")


# -- stdio.h ---------------------------------------------------------------------

def _format_printf(machine, fmt: str, varargs: list) -> str:
    out = []
    i = 0
    argi = 0
    n = len(fmt)
    while i < n:
        ch = fmt[i]
        if ch != "%":
            out.append(ch)
            i += 1
            continue
        j = i + 1
        # flags, width, precision
        while j < n and fmt[j] in "-+ #0123456789.*":
            j += 1
        # length modifiers
        while j < n and fmt[j] in "hlLzjt":
            j += 1
        if j >= n:
            out.append("%")
            break
        conv = fmt[j]
        spec = fmt[i:j + 1]
        # drop length modifiers: Python's % doesn't know them
        pyspec = "%" + "".join(c for c in spec[1:-1] if c not in "hlLzjt") + conv
        if conv == "%":
            out.append("%")
        elif conv in "diu":
            out.append(pyspec.replace("u", "d") % int(varargs[argi]))
            argi += 1
        elif conv in "fFeEgG":
            out.append(pyspec % float(varargs[argi]))
            argi += 1
        elif conv in "xXo":
            out.append(pyspec % (int(varargs[argi]) & 0xFFFFFFFFFFFFFFFF))
            argi += 1
        elif conv == "c":
            out.append(chr(int(varargs[argi]) & 0xFF))
            argi += 1
        elif conv == "s":
            text = machine.memory.read_cstring(int(varargs[argi]))
            out.append(pyspec % text.decode("utf-8", "replace"))
            argi += 1
        elif conv == "p":
            out.append(f"{int(varargs[argi]):#x}")
            argi += 1
        else:
            out.append(spec)
        i = j + 1
    return "".join(out)


@builtin("printf")
def _printf(machine, args):
    fmt = machine.memory.read_cstring(int(args[0])).decode("utf-8", "replace")
    text = _format_printf(machine, fmt, list(args[1:]))
    machine.stdout_chunks.append(text)
    sys.stdout.write(text)
    return len(text)


@builtin("snprintf")
def _snprintf(machine, args):
    dst, size = int(args[0]), int(args[1])
    fmt = machine.memory.read_cstring(int(args[2])).decode("utf-8", "replace")
    text = _format_printf(machine, fmt, list(args[3:]))
    raw = text.encode("utf-8")
    if size > 0:
        clipped = raw[:size - 1]
        machine.memory.write_cstring(dst, clipped)
    return len(raw)


@builtin("puts")
def _puts(machine, args):
    text = machine.memory.read_cstring(int(args[0])).decode("utf-8", "replace")
    machine.stdout_chunks.append(text + "\n")
    sys.stdout.write(text + "\n")
    return len(text) + 1


@builtin("putchar")
def _putchar(machine, args):
    ch = chr(int(args[0]) & 0xFF)
    machine.stdout_chunks.append(ch)
    sys.stdout.write(ch)
    return int(args[0])


# -- the rest: the process's C library, once the checks have passed ---------

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


def _transfer(write):
    def check(memory, ptr, size, count, fh):
        _file(memory, fh)
        memory.check_access(ptr, size * count, write)
    return check


for _name, _check in {
        "srand": None, "rand": None, "clock": None, "atoi": _strings,
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
