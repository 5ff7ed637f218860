"""``saveobj`` — ahead-of-time output of Terra functions.

The paper (§2): "we can save the Terra function to a .o file which can be
linked to a normal C executable" — the property that makes generated
kernels usable *without* the meta-language runtime (§6.1: "since Terra
code can run without Lua, the resulting multiply routine can be written
out as a library and used in other programs").

The output format follows the file extension:

* ``.c``  — the C translation unit (with exported wrappers),
* ``.o``  — a relocatable object file (gcc -c),
* ``.so`` — a shared library (gcc -shared),
* ``.h``  — a C header with prototypes for the exported names.
"""

from __future__ import annotations

import os

from ..backend.base import get_backend
from ..backend.c.emit import CEmitter
from ..buildd import get_service
from ..buildd.service import CC_FLAGS
from ..core.linker import pipelined_component
from ..errors import CompileError


def _emitter(functions: dict) -> tuple[CEmitter, str]:
    """The freestanding emitter of one unit holding every given function's
    component, each member once, and that unit's text."""
    backend = get_backend("c")
    members = {member.uid: member for fn in functions.values()
               for member in pipelined_component(fn, backend)}
    emitter = CEmitter(list(members.values()), backend, freestanding=True)
    return emitter, emitter.emit_unit()


def emit_exported_source(functions: dict) -> str:
    """One translation unit defining all given functions, with an exported
    wrapper per requested name."""
    emitter, source = _emitter(functions)
    wrappers = ["/* exported names */"]
    for export_name, fn in functions.items():
        typed = fn.typed
        params = ", ".join(
            emitter._field_decl(ty, f"a{i}")
            for i, ty in enumerate(typed.type.parameters)) or "void"
        argnames = ", ".join(f"a{i}"
                             for i in range(len(typed.type.parameters)))
        ret = emitter.ctype(typed.type.returntype)
        call = f"{emitter.fn_name(fn)}({argnames})"
        body = f"return {call};" if ret != "void" else f"{call};"
        wrappers.append(f"{ret} {export_name}({params}) {{ {body} }}")
    return source + "\n" + "\n".join(wrappers) + "\n"


def emit_header(functions: dict) -> str:
    emitter, _ = _emitter(functions)    # the unit fills the type tables
    lines = ["#include <stdint.h>", ""]
    for export_name, fn in functions.items():
        typed = fn.typed
        params = ", ".join(emitter.ctype(ty)
                           for ty in typed.type.parameters) or "void"
        ret = emitter.ctype(typed.type.returntype)
        lines.append(f"{ret} {export_name}({params});")
    return "\n".join(lines) + "\n"


def saveobj(path: str, functions: dict) -> None:
    for name, fn in functions.items():
        if not getattr(fn, "is_terra_function", False):
            raise CompileError(f"saveobj: {name!r} is not a Terra function")
    ext = os.path.splitext(path)[1]
    if ext == ".h":
        with open(path, "w") as f:
            f.write(emit_header(functions))
        return
    source = emit_exported_source(functions)
    if ext == ".c":
        with open(path, "w") as f:
            f.write(source)
        return
    c_path = path + ".gen.c"
    with open(c_path, "w") as f:
        f.write(source)
    # the JIT's compile flags, so a saved unit means what it means JIT-ed
    # (-fwrapv, -ffp-contract=off, ...); a .so keeps the driver's link
    if ext == ".o":
        flags = [*CC_FLAGS, "-c", c_path]
    elif ext == ".so":
        flags = [*CC_FLAGS, "-shared", c_path, "-lm"]
    else:
        os.unlink(c_path)
        raise CompileError(
            f"saveobj: unsupported extension {ext!r} (use .c, .h, .o, .so)")
    try:
        # routed through the buildd service: runs on the compile pool and
        # is recorded in the telemetry, but the output path is the user's,
        # so it is not content-cached.
        get_service().compile_to(path, source, flags)
    except CompileError as exc:
        raise CompileError(f"saveobj: {exc}") from None
    finally:
        os.unlink(c_path)
