"""Typed Terra IR → C source.

The analog of Terra's LLVM code generator: each compilation unit is one
connected component of functions, emitted as a self-contained C translation
unit and built by gcc at ``-O3 -march=native``.

Lowering notes:

* Terra vectors → GCC vector extensions (``__attribute__((vector_size))``),
  the same SIMD model Terra gets from LLVM's vector types;
* ``prefetch`` → ``__builtin_prefetch`` (the paper's §6.1 kernel relies on
  this); hint arguments must be compile-time constants, as in C;
* statement-quotes spliced into expressions (``TLetIn``) → GCC statement
  expressions;
* Terra arrays are value types, so ``T[N]`` becomes a one-field wrapper
  struct (arrays then copy/pass/return by value exactly like Terra);
* cross-unit references never happen: the linker hands every backend the
  whole connected component, and globals/callbacks are referenced through
  absolute addresses materialized by the runtime.
"""

from __future__ import annotations

import itertools
import math
import struct
from typing import Optional

from ... import config
from ...core import tast
from ...core import types as T
from ...errors import CompileError
from ...memory.layout import round_float
from ...passes.analysis import expr_may_trap, has_side_effects

_unit_ids = itertools.count(1)


def _order_sensitive(e: tast.TExpr) -> bool:
    """Must ``e`` be evaluated at its source position relative to its
    siblings?  C leaves binary-operand and argument evaluation order
    unspecified (gcc goes right-to-left on x86-64), so when two sibling
    expressions can both trap or have side effects the emitter pins
    left-to-right order with a statement expression — otherwise
    ``(1 % d) / (1 / d)`` with ``d == 0`` reports the *division* trap
    where the interpreter (and source order) hit the modulo first."""
    return expr_may_trap(e) or has_side_effects(e)

#: runtime trap codes reported by guarded operations (see docs/LANGUAGE.md
#: "Defined semantics"); :mod:`repro.backend.c.runtime` translates them to
#: :class:`~repro.errors.TrapError`, mirroring the interpreter
TRAP_DIV_ZERO = 1
TRAP_MOD_ZERO = 2

TRAP_MESSAGES = {
    TRAP_DIV_ZERO: "integer division by zero",
    TRAP_MOD_ZERO: "integer modulo by zero",
}


def _sanitize(name: str) -> str:
    return "".join(c if c.isalnum() else "_" for c in name)


class CEmitter:
    def __init__(self, component, backend, freestanding: bool = False):
        """``component`` is a list of TerraFunctions (typechecked, the
        entry function first); ``backend`` provides addresses for globals
        and Python callbacks.

        ``freestanding`` emission (saveobj) must not reference the Python
        process: Terra globals become real C globals in the unit, and
        Python callbacks are rejected."""
        self.component = component
        self.backend = backend
        self.freestanding = freestanding
        self._global_names: dict[int, str] = {}
        self._global_list: list = []
        self.lines: list[str] = []
        self.indent = 0
        self._tmp = itertools.count(1)
        self._sym_names: dict[int, str] = {}
        self._struct_names: dict[int, str] = {}
        self._struct_list: list[T.StructType] = []
        self._array_names: dict[int, str] = {}
        self._array_list: list[T.ArrayType] = []
        self._vector_names: dict[int, str] = {}
        self._vector_list: list[T.VectorType] = []
        # runtime helper functions emitted once per unit, on first use
        # (guarded div/mod, saturating float->int); name -> definition lines
        self._helper_defs: dict[str, list[str]] = {}
        # True once any helper can call trepro_trap(): the unit then gets
        # the setjmp machinery and per-function *_tentry wrappers
        self._trap_used = False
        # deterministic unit-local function names, assigned in component
        # (discovery) order rather than from the process-global uid counter:
        # identically-staged units then emit byte-identical C, so the
        # content-addressed artifact cache hits across reruns and processes.
        self.fn_names: dict[int, str] = {}
        for index, f in enumerate(component):
            if not f.is_external:
                self.fn_names[f.uid] = f"tfn{index}_{_sanitize(f.name)}"

    # ==================================================================
    # naming / type spelling
    # ==================================================================
    def fn_name(self, fn) -> str:
        if fn.is_external:
            return fn.external_name
        name = self.fn_names.get(fn.uid)
        if name is None:  # defensive: everything emitted is in the component
            name = f"tfn{fn.uid}_{_sanitize(fn.name)}"
            self.fn_names[fn.uid] = name
        return name

    def ctype(self, ty: T.Type) -> str:
        """The C spelling of a Terra type (usable in casts and decls)."""
        if isinstance(ty, T.PrimitiveType):
            if ty.islogical():
                return "uint8_t"
            if ty.isfloat():
                return "float" if ty is T.float32 else "double"
            return f"{'' if ty.signed else 'u'}int{ty.bytes * 8}_t"
        if isinstance(ty, T.TupleType) and ty.isunit():
            return "void"
        if isinstance(ty, T.PointerType):
            depth, base = 0, ty.pointee     # &&{...}->... is ret (**)(...)
            while isinstance(base, T.PointerType):
                depth, base = depth + 1, base.pointee
            if isinstance(base, T.FunctionType):
                return self._fnptr_type(base, "*" * depth)
            if isinstance(ty.pointee, T.OpaqueType):
                return "void *"
            return f"{self.ctype(ty.pointee)} *"
        if isinstance(ty, T.StructType):
            return self._struct_name(ty)
        if isinstance(ty, T.ArrayType):
            return self._array_name(ty)
        if isinstance(ty, T.VectorType):
            return self._vector_name(ty)
        if isinstance(ty, T.OpaqueType):
            return "void"
        raise CompileError(f"cannot emit C type for {ty}")

    def _fnptr_type(self, ftype: T.FunctionType, name: str) -> str:
        ret = self.ctype(ftype.returntype)
        params = ", ".join(self.ctype(p) for p in ftype.parameters)
        if ftype.varargs:
            params = f"{params}, ..." if params else "..."
        elif not params:
            params = "void"
        return f"{ret} (*{name})({params})"

    def _struct_name(self, ty: T.StructType) -> str:
        name = self._struct_names.get(id(ty))
        if name is None:
            ty.complete()
            ty.layout()
            name = f"ts{len(self._struct_names)}_{_sanitize(ty.name)}"
            self._struct_names[id(ty)] = name
            self._struct_list.append(ty)
            for entry in ty.entries:
                self._register(entry.type)
        return name

    def _array_name(self, ty: T.ArrayType) -> str:
        name = self._array_names.get(id(ty))
        if name is None:
            name = f"ta{len(self._array_names)}"
            self._array_names[id(ty)] = name
            self._array_list.append(ty)
            self._register(ty.elem)
        return name

    def _vector_name(self, ty: T.VectorType) -> str:
        name = self._vector_names.get(id(ty))
        if name is None:
            name = f"tv{len(self._vector_names)}_{self.ctype(ty.elem).rstrip('_t')}"
            name = _sanitize(name)
            self._vector_names[id(ty)] = name
            self._vector_list.append(ty)
        return name

    def _register(self, ty: T.Type) -> None:
        """Make sure a type (and its dependencies) get typedefs."""
        self.ctype(ty)

    # ==================================================================
    # unit emission
    # ==================================================================
    def _fn_body(self, fn) -> tast.TBlock:
        """``fn``'s body at this backend's pipeline level.

        Served through the per-level cache in :mod:`repro.passes`, so the
        emitted C does not depend on which backend compiled first."""
        from ...passes import pipelined_body
        return pipelined_body(fn.typed,
                              getattr(self.backend, "pipeline_level", None))

    def emit_unit(self) -> str:
        # pass 0: with REPRO_TERRA_VERIFY_IR=1, re-check the typed trees
        # right before they become C — the last point a broken invariant
        # can be caught as a diagnostic instead of a miscompile
        if config.get("REPRO_TERRA_VERIFY_IR"):
            from ...passes.verify import verify_function
            for fn in self.component:
                if not fn.is_external and fn.typed is not None:
                    verify_function(fn.typed, where="before C emission",
                                    body=self._fn_body(fn))
        # pass 1: register every type reachable from the component
        for fn in self.component:
            self.fn_name(fn)
            ftype = fn.gettype() if fn.is_external else fn.typed.type
            for p in ftype.parameters:
                self._register(p)
            self._register(ftype.returntype)
            if not fn.is_external:
                for node in tast.walk(self._fn_body(fn)):
                    ty = getattr(node, "type", None)
                    if isinstance(ty, T.Type) and not isinstance(ty, T.FunctionType):
                        self._register(ty)
                    if isinstance(node, tast.TVarDecl):
                        for t in node.types:
                            self._register(t)
        # pass 2: emit bodies into a scratch buffer (may register more
        # types through casts spelled inside expressions)
        body_lines: list[str] = []
        for fn in self.component:
            if fn.is_external:
                continue
            saved = self.lines
            self.lines = body_lines
            self._emit_function(fn)
            self.lines = saved
        # pass 3: assemble the final translation unit
        out: list[str] = [
            "#include <stdint.h>",
            "#include <stddef.h>",
        ]
        if self._trap_used:
            out.append("#include <setjmp.h>")
        out.append("")
        out.extend(self._emit_typedefs())
        out.append("")
        if self._trap_used:
            out.extend(self._emit_trap_prelude())
        # helper definitions, sorted by name so emission order inside
        # bodies never changes the unit text (content-cache determinism)
        for name in sorted(self._helper_defs):
            out.extend(self._helper_defs[name])
        if self._helper_defs:
            out.append("")
        out.extend(self._emit_freestanding_globals())
        for fn in self.component:
            out.append(self._prototype(fn) + ";")
        out.append("")
        out.extend(body_lines)
        if self._trap_used:
            out.extend(self._emit_entry_wrappers())
        return "\n".join(out) + "\n"

    # ==================================================================
    # runtime trap machinery (guarded operations)
    # ==================================================================
    def _emit_trap_prelude(self) -> list[str]:
        """Thread-local setjmp state + the trap hook.

        Inside a ``*_tentry`` wrapper (armed) a trap longjmps back to the
        wrapper, which reports the code to the caller through an out
        parameter; outside any wrapper (freestanding code, function
        pointers called from C) it falls back to ``__builtin_trap``."""
        return [
            "static __thread jmp_buf trepro_trap_jmp;",
            "static __thread int32_t trepro_trap_code;",
            "static __thread int32_t trepro_trap_armed;",
            "__attribute__((noreturn)) static void trepro_trap(int32_t code) {",
            "  trepro_trap_code = code;",
            "  if (trepro_trap_armed) longjmp(trepro_trap_jmp, 1);",
            "  __builtin_trap();",
            "}",
            "",
        ]

    def _emit_entry_wrappers(self) -> list[str]:
        """``*_tentry`` twins for every function in the unit: same
        signature plus a trailing ``int32_t *trapcode`` out-param.  The
        wrapper arms the trap jump buffer around the real call; a trap
        unwinds straight back here (so execution stops at the trapping
        operation, like the interpreter's TrapError) and the nonzero code
        is reported instead of a result."""
        out: list[str] = []
        for fn in self.component:
            if fn.is_external:
                continue
            typed = fn.typed
            ret = typed.type.returntype
            is_void = isinstance(ret, T.TupleType) and ret.isunit()
            args = ", ".join(self._sym(sym) for sym in typed.param_symbols)
            params = ", ".join(
                self._field_decl(ty, self._sym(sym))
                for sym, ty in zip(typed.param_symbols, typed.type.parameters))
            params = f"{params}, " if params else ""
            rty = self.ctype(ret)
            name = self.fn_name(fn)
            out.append(f"{rty} {name}_tentry({params}int32_t *trapcode) {{")
            out.append("  jmp_buf _saved_jmp;")
            out.append("  int32_t _saved_armed = trepro_trap_armed;")
            out.append("  __builtin_memcpy(&_saved_jmp, &trepro_trap_jmp, "
                       "sizeof(jmp_buf));")
            out.append("  if (setjmp(trepro_trap_jmp)) {")
            out.append("    __builtin_memcpy(&trepro_trap_jmp, &_saved_jmp, "
                       "sizeof(jmp_buf));")
            out.append("    trepro_trap_armed = _saved_armed;")
            out.append("    *trapcode = trepro_trap_code;")
            if is_void:
                out.append("    return;")
            else:
                out.append(f"    {rty} _z;")
                out.append("    __builtin_memset(&_z, 0, sizeof(_z));")
                out.append("    return _z;")
            out.append("  }")
            out.append("  trepro_trap_armed = 1;")
            if is_void:
                out.append(f"  {name}({args});")
            else:
                out.append(f"  {rty} _r = {name}({args});")
            out.append("  __builtin_memcpy(&trepro_trap_jmp, &_saved_jmp, "
                       "sizeof(jmp_buf));")
            out.append("  trepro_trap_armed = _saved_armed;")
            out.append("  *trapcode = 0;")
            out.append("  return;" if is_void else "  return _r;")
            out.append("}")
            out.append("")
        return out

    def _div_helper(self, op: str, ty: T.PrimitiveType) -> str:
        """A guarded integer division/modulo helper for ``ty``.

        Semantics (docs/LANGUAGE.md "Defined semantics"): a zero divisor
        traps (code TRAP_DIV_ZERO/TRAP_MOD_ZERO → TrapError in the host);
        ``INT_MIN / -1`` wraps to ``INT_MIN`` and ``INT_MIN % -1`` is 0 —
        both of which SIGFPE on bare x86 hardware."""
        kind = "div" if op == "/" else "mod"
        suffix = f"{'i' if ty.signed else 'u'}{ty.bytes * 8}"
        name = f"trepro_{kind}_{suffix}"
        if name not in self._helper_defs:
            self._trap_used = True
            cty = self.ctype(ty)
            code = TRAP_DIV_ZERO if kind == "div" else TRAP_MOD_ZERO
            lines = [f"static inline {cty} {name}({cty} a, {cty} b) {{",
                     f"  if (b == 0) trepro_trap({code});"]
            if ty.signed and ty.bytes >= 4:
                # widths below int promote to int, so a/b cannot overflow
                uty = f"uint{ty.bytes * 8}_t"
                usfx = "U" if ty.bytes == 4 else "ULL"
                if kind == "div":
                    lines.append(f"  if (b == -1) return "
                                 f"({cty})(0{usfx} - ({uty})a);")
                else:
                    lines.append("  if (b == -1) return 0;")
            c_op = "/" if kind == "div" else "%"
            lines.append(f"  return ({cty})(a {c_op} b);")
            lines.append("}")
            self._helper_defs[name] = lines
        return name

    def _sat_helper(self, src: T.PrimitiveType, ty: T.PrimitiveType) -> str:
        """A saturating conversion helper from float type ``src`` to integer
        type ``ty``: NaN → 0, out-of-range truncations clamp to the type's
        min/max (LLVM ``fptosi.sat``; both backends implement exactly this).
        ``x`` is read at its own width, and the in-range path is one
        integer test on its bits: ``|x| < 2^(w-1)`` for a signed target,
        ``+0 <= x < 2^w`` for an unsigned one (a set sign bit compares above
        every positive float).  The cold path returns 0 for NaN and the
        bound on ``x``'s side otherwise, which is also what truncation gives
        the few in-range values it sees (``-2^(w-1)``; ``(-1, -0]``)."""
        sbits, w = src.bytes * 8, ty.bytes * 8
        name = f"trepro_f{sbits}_{'i' if ty.signed else 'u'}{w}"
        if name not in self._helper_defs:
            fmt, sfx = ("<f", "U") if sbits == 32 else ("<d", "ULL")

            def bits(v: float) -> str:
                word = int.from_bytes(struct.pack(fmt, v), "little")
                return f"0x{word:x}{sfx}"
            mag = f"(b & 0x{(1 << (sbits - 1)) - 1:x}{sfx})"
            fast = (f"{mag} < {bits(2.0 ** (w - 1))}" if ty.signed
                    else f"b < {bits(2.0 ** w)}")
            cty = self.ctype(ty)
            lo = self._scalar_const(ty.min_value(), ty)
            hi = self._scalar_const(ty.max_value(), ty)
            self._helper_defs[name] = [
                f"static inline {cty} {name}({self.ctype(src)} x) {{",
                f"  uint{sbits}_t b; __builtin_memcpy(&b, &x, sizeof b);",
                f"  if (__builtin_expect({fast}, 1)) return ({cty})x;",
                f"  if ({mag} > {bits(math.inf)}) return 0;",
                f"  return (b >> {sbits - 1}) ? {lo} : {hi};",
                "}"]
        return name

    def _narrow(self, expr: str, ty: T.Type) -> str:
        """Truncate a C arithmetic result back to a sub-int Terra type.

        C's integer promotions compute int8/int16 arithmetic at ``int``
        width; without this cast the un-wrapped intermediate leaks into
        enclosing expressions (``(x + x) < y`` at int8) and diverges from
        the interpreter's width-exact wrapping."""
        if isinstance(ty, T.PrimitiveType) and ty.isintegral() \
                and ty.bytes < 4:
            return f"(({self.ctype(ty)}){expr})"
        return expr

    def _emit_typedefs(self) -> list[str]:
        out: list[str] = []
        for ty in self._vector_list:
            size = ty.sizeof()
            align = ty.alignof()
            out.append(
                f"typedef {self.ctype(ty.elem)} {self._vector_names[id(ty)]} "
                f"__attribute__((vector_size({size}), aligned({align})));")
        # forward declarations so pointer fields can be spelled
        for ty in self._struct_list:
            name = self._struct_names[id(ty)]
            out.append(f"typedef struct {name} {name};")
        for ty in self._array_list:
            name = self._array_names[id(ty)]
            out.append(f"typedef struct {name} {name};")
        # definitions, topologically sorted on by-value dependencies
        emitted: set[int] = set()
        aggregates = list(self._struct_list) + list(self._array_list)

        def emit_aggregate(ty):
            if id(ty) in emitted:
                return
            emitted.add(id(ty))
            deps = []
            if isinstance(ty, T.StructType):
                deps = [e.type for e in ty.entries]
            elif isinstance(ty, T.ArrayType):
                deps = [ty.elem]
            for dep in deps:
                if isinstance(dep, (T.StructType, T.ArrayType)):
                    emit_aggregate(dep)
            if isinstance(ty, T.StructType):
                name = self._struct_names[id(ty)]
                parts: list[str] = []
                i = 0
                entries = ty.entries
                while i < len(entries):
                    e = entries[i]
                    if e.union_group is None:
                        parts.append(
                            f" {self._field_decl(e.type, _sanitize(e.field))};")
                        i += 1
                        continue
                    group = e.union_group
                    members = []
                    while i < len(entries) and entries[i].union_group == group:
                        members.append(
                            f" {self._field_decl(entries[i].type, _sanitize(entries[i].field))};")
                        i += 1
                    parts.append(f" union {{{''.join(members)} }};")
                fields = "".join(parts)
                if not ty.entries:
                    fields = " char _empty;"  # C forbids empty structs
                out.append(f"struct {name} {{{fields} }};")
            else:
                name = self._array_names[id(ty)]
                count = max(ty.count, 1)
                out.append(f"struct {name} {{ "
                           f"{self._field_decl(ty.elem, 'data', count)}; }};")

        # aggregates can grow while we iterate (nested registrations)
        i = 0
        while i < len(aggregates):
            emit_aggregate(aggregates[i])
            i += 1
            aggregates = list(self._struct_list) + list(self._array_list)
        return out

    def _freestanding_global(self, glob) -> str:
        name = self._global_names.get(glob.uid)
        if name is None:
            name = f"tg{glob.uid}_{_sanitize(glob.name)}"
            self._global_names[glob.uid] = name
            self._global_list.append(glob)
            self._register(glob.type)
        return name

    def _emit_freestanding_globals(self) -> list[str]:
        out: list[str] = []
        for glob in self._global_list:
            name = self._global_names[glob.uid]
            ty = glob.type
            decl = self._field_decl(ty, name)
            if glob.init is None:
                out.append(f"static {decl};")  # C zero-initializes statics
            elif isinstance(ty, T.PrimitiveType):
                out.append(f"static {decl} = {self._scalar_const(glob.init, ty)};")
            elif ty.ispointer() and (glob.init in (0, None)):
                out.append(f"static {decl} = 0;")
            else:
                # aggregate initializer: copy the exact in-memory bytes in
                # at load time
                from ...ffi.convert import python_to_blob
                blob = python_to_blob(glob.init, ty)
                bytes_list = ",".join(str(b) for b in blob)
                out.append(f"static {decl};")
                out.append(
                    f"__attribute__((constructor)) static void "
                    f"init_{name}(void) {{ static const unsigned char "
                    f"_blob[] = {{{bytes_list}}}; "
                    f"__builtin_memcpy(&{name}, _blob, {len(blob)}); }}")
        return out

    def _field_decl(self, ty: T.Type, name: str,
                    array_count: Optional[int] = None) -> str:
        if isinstance(ty, T.PointerType) and isinstance(ty.pointee, T.FunctionType):
            inner = name if array_count is None else f"{name}[{array_count}]"
            return self._fnptr_type(ty.pointee, inner)
        base = self.ctype(ty)
        if array_count is not None:
            return f"{base} {name}[{array_count}]"
        return f"{base} {name}"

    def _prototype(self, fn) -> str:
        if fn.is_external:
            ftype = fn.external_type
            params = ", ".join(self.ctype(p) for p in ftype.parameters)
            if ftype.varargs:
                params = f"{params}, ..." if params else "..."
            elif not params:
                params = "void"
            return (f"extern {self.ctype(ftype.returntype)} "
                    f"{fn.external_name}({params})")
        typed = fn.typed
        params = ", ".join(
            self._field_decl(ty, self._sym(sym))
            for sym, ty in zip(typed.param_symbols, typed.type.parameters))
        if not params:
            params = "void"
        return f"{self.ctype(typed.type.returntype)} {self.fn_name(fn)}({params})"

    def _sym(self, symbol) -> str:
        # unit-local ordinal names (not the process-global symbol id), so
        # identically-staged units emit byte-identical C and content-cache
        name = self._sym_names.get(symbol.id)
        if name is None:
            name = f"s{len(self._sym_names)}_{_sanitize(symbol.displayname or 'v')}"
            self._sym_names[symbol.id] = name
        return name

    # ==================================================================
    # function bodies
    # ==================================================================
    def _line(self, text: str) -> None:
        self.lines.append("  " * self.indent + text)

    def _emit_function(self, fn) -> None:
        self._line(self._prototype(fn) + " {")
        self.indent += 1
        self._emit_block_stmts(self._fn_body(fn))
        self.indent -= 1
        self._line("}")
        self._line("")

    def _emit_block_stmts(self, block: tast.TBlock) -> None:
        for stat in block.statements:
            self._emit_stat(stat)

    def _emit_stat(self, s: tast.TStat) -> None:
        if isinstance(s, tast.TVarDecl):
            for i, (sym, ty) in enumerate(zip(s.symbols, s.types)):
                name = self._sym(sym)
                if s.inits is not None:
                    self._line(f"{self._field_decl(ty, name)} = "
                               f"{self._rv(s.inits[i], ty)};")
                else:
                    self._line(f"{self._field_decl(ty, name)};")
                    self._line(f"__builtin_memset(&{name}, 0, sizeof({name}));")
        elif isinstance(s, tast.TAssign):
            if len(s.lhs) == 1:
                self._line(f"{self._ev(s.lhs[0])} = "
                           f"{self._rv(s.rhs[0], s.lhs[0].type)};")
            else:
                self._line("{")
                self.indent += 1
                temps = []
                for rhs, lhs in zip(s.rhs, s.lhs):
                    tmp = f"_t{next(self._tmp)}"
                    temps.append(tmp)
                    self._line(f"{self._field_decl(lhs.type, tmp)} = "
                               f"{self._rv(rhs, lhs.type)};")
                for lhs, tmp in zip(s.lhs, temps):
                    self._line(f"{self._ev(lhs)} = {tmp};")
                self.indent -= 1
                self._line("}")
        elif isinstance(s, tast.TIf):
            first = True
            for cond, body in s.branches:
                kw = "if" if first else "} else if"
                first = False
                self._line(f"{kw} ({self._ev(cond)}) {{")
                self.indent += 1
                self._emit_block_stmts(body)
                self.indent -= 1
            if s.orelse is not None:
                self._line("} else {")
                self.indent += 1
                self._emit_block_stmts(s.orelse)
                self.indent -= 1
            self._line("}")
        elif isinstance(s, tast.TWhile):
            self._line(f"while ({self._ev(s.cond)}) {{")
            self.indent += 1
            self._emit_block_stmts(s.body)
            self.indent -= 1
            self._line("}")
        elif isinstance(s, tast.TRepeat):
            self._line("do {")
            self.indent += 1
            self._emit_block_stmts(s.body)
            self.indent -= 1
            self._line(f"}} while (!({self._ev(s.cond)}));")
        elif isinstance(s, tast.TForNum):
            self._emit_for(s)
        elif isinstance(s, tast.TDoStat):
            self._line("{")
            self.indent += 1
            self._emit_block_stmts(s.body)
            self.indent -= 1
            self._line("}")
        elif isinstance(s, tast.TReturn):
            if s.expr is None:
                self._line("return;")
            else:
                self._line(f"return {self._rv(s.expr, s.expr.type)};")
        elif isinstance(s, tast.TBreak):
            self._line("break;")
        elif isinstance(s, tast.TExprStat):
            self._line(f"{self._ev(s.expr)};")
        else:
            raise CompileError(f"cannot emit statement {type(s).__name__}")

    def _emit_for(self, s: tast.TForNum) -> None:
        cty = self.ctype(s.var_type)
        name = self._sym(s.symbol)
        # bounds evaluate once, in source order (start, limit, step) —
        # the interpreter does the same, and effectful or trapping bound
        # expressions make the order observable
        sta = f"_sta{next(self._tmp)}"
        lim = f"_lim{next(self._tmp)}"
        self._line("{")
        self.indent += 1
        self._line(f"{cty} {sta} = {self._ev(s.start)};")
        self._line(f"{cty} {lim} = {self._ev(s.limit)};")
        if s.step is None:
            cond = f"{name} < {lim}"
            inc = f"++{name}"
        else:
            stp = f"_stp{next(self._tmp)}"
            self._line(f"{cty} {stp} = {self._ev(s.step)};")
            inc = f"{name} += {stp}"
            if s.step_sign > 0:
                cond = f"{name} < {lim}"
            elif s.step_sign < 0:
                cond = f"{name} > {lim}"
            else:
                cond = f"({stp} > 0 ? {name} < {lim} : {name} > {lim})"
        self._line(f"for ({cty} {name} = {sta}; {cond}; {inc}) {{")
        self.indent += 1
        self._emit_block_stmts(s.body)
        self.indent -= 1
        self._line("}")
        self.indent -= 1
        self._line("}")

    # ==================================================================
    # expressions
    # ==================================================================
    def _rv(self, e: tast.TExpr, target: T.Type) -> str:
        """Emit ``e`` as an rvalue of ``target`` type (types already agree
        after typechecking; this is just the string form)."""
        return self._ev(e)

    def _ev(self, e: tast.TExpr) -> str:
        if isinstance(e, tast.TConst):
            return self._const(e)
        if isinstance(e, tast.TString):
            return f"(int8_t*){self._cstring(e.value)}"
        if isinstance(e, tast.TNull):
            return f"(({self.ctype(e.type)})0)"
        if isinstance(e, tast.TVar):
            return self._sym(e.symbol)
        if isinstance(e, tast.TGlobal):
            if self.freestanding:
                return self._freestanding_global(e.glob)
            cast = self.ctype(e.type)       # a function pointer's ends ")"
            cast = self.ctype(T.pointer(e.type)) if cast.endswith(")") \
                else f"{cast}*"
            return f"(*({cast}){e.glob.address:#x}UL)"
        if isinstance(e, tast.TFuncLit):
            return self.fn_name(e.func)
        if isinstance(e, tast.TCallback):
            if self.freestanding:
                raise CompileError(
                    "saveobj: this code references a Python callback "
                    f"({e.callback.name}), which cannot exist outside the "
                    f"Python process")
            from .abi import callback_address
            addr = callback_address(e.callback)[0]
            cast = self._fnptr_type(e.callback.type, "")
            return f"(({cast}){addr:#x}UL)"
        if isinstance(e, tast.TCast):
            return self._cast(e)
        if isinstance(e, tast.TCall):
            argstrs = [self._ev(a) for a in e.args]
            if isinstance(e.fn, (tast.TFuncLit, tast.TCallback)):
                callee = self._ev(e.fn)
            else:
                callee = f"({self._ev(e.fn)})"
            if sum(1 for a in e.args if _order_sensitive(a)) >= 2:
                # pin left-to-right argument evaluation (C leaves call
                # argument order unspecified; gcc goes right-to-left)
                decls = " ".join(
                    f"{self.ctype(a.type)} _seqa{i} = ({s});"
                    for i, (a, s) in enumerate(zip(e.args, argstrs)))
                args = ", ".join(f"_seqa{i}" for i in range(len(e.args)))
                return f"({{ {decls} {callee}({args}); }})"
            return f"{callee}({', '.join(argstrs)})"
        if isinstance(e, tast.TSelect):
            return f"{self._ev(e.obj)}.{_sanitize(e.field)}"
        if isinstance(e, tast.TIndex):
            if e.obj.type.ispointer():
                return f"{self._ev(e.obj)}[{self._ev(e.index)}]"
            return f"{self._ev(e.obj)}.data[{self._ev(e.index)}]"
        if isinstance(e, tast.TVectorIndex):
            return f"{self._ev(e.obj)}[{self._ev(e.index)}]"
        if isinstance(e, tast.TDeref):
            return f"(*{self._ev(e.ptr)})"
        if isinstance(e, tast.TAddressOf):
            return f"(&{self._ev(e.operand)})"
        if isinstance(e, tast.TUnOp):
            return self._unop(e)
        if isinstance(e, tast.TBinOp):
            return self._binop(e)
        if isinstance(e, tast.TLogical):
            c_op = "&&" if e.op == "and" else "||"
            return f"(uint8_t)(({self._ev(e.lhs)}) {c_op} ({self._ev(e.rhs)}))"
        if isinstance(e, tast.TCtor):
            return self._ctor(e)
        if isinstance(e, tast.TLetIn):
            saved, self.lines = self.lines, []
            saved_indent, self.indent = self.indent, 1
            self._emit_block_stmts(e.block)
            inner = "\n".join(self.lines)
            self.lines, self.indent = saved, saved_indent
            return f"({{\n{inner}\n{self._ev(e.expr)}; }})"
        if isinstance(e, tast.TIntrinsic):
            return self._intrinsic(e)
        raise CompileError(f"cannot emit expression {type(e).__name__}")

    def _const(self, e: tast.TConst) -> str:
        ty = e.type
        if isinstance(ty, T.VectorType):
            elems = ", ".join(self._scalar_const(v, ty.elem) for v in e.value)
            return f"(({self.ctype(ty)}){{{elems}}})"
        return self._scalar_const(e.value, ty)

    def _scalar_const(self, value, ty: T.PrimitiveType) -> str:
        if ty.islogical():
            return "1" if value else "0"
        if ty.isintegral():
            suffix = ""
            if ty.bytes == 8:
                suffix = "LL" if ty.signed else "ULL"
            elif not ty.signed:
                suffix = "U"
            if ty.signed and value == -(1 << (ty.bytes * 8 - 1)):
                # C has no negative literals: -9223372036854775808LL
                # parses as -(9223372036854775808LL) whose operand
                # overflows long long.  Spell every signed minimum as
                # (min+1) - 1 so the same form works at any width.
                return f"(({self.ctype(ty)})({value + 1}{suffix} - 1))"
            return f"(({self.ctype(ty)}){value}{suffix})"
        fv = float(value)
        if math.isnan(fv):
            return "__builtin_nanf(\"\")" if ty is T.float32 else "__builtin_nan(\"\")"
        if math.isinf(fv):
            base = "__builtin_inff()" if ty is T.float32 else "__builtin_inf()"
            return f"(-{base})" if fv < 0 else base
        if ty is T.float32:
            # The shortest decimal that reads back as this float: 0.1f,
            # not 0.10000000149011612f, for the float nearest 0.1.
            return next(s for s in (repr(float(f"{fv:.{n}g}"))
                                    for n in range(1, 10))
                        if round_float(float(s), ty) == fv) + "f"
        return f"{fv!r}"

    @staticmethod
    def _cstring(text: str) -> str:
        out = ['"']
        for ch in text.encode("utf-8"):
            if 32 <= ch < 127 and ch not in (34, 92):
                out.append(chr(ch))
            else:
                out.append(f"\\{ch:03o}")
        out.append('"')
        return "".join(out)

    def _cast(self, e: tast.TCast) -> str:
        inner = self._ev(e.expr)
        ty = e.type
        src = e.expr.type
        if e.kind == "broadcast":
            assert isinstance(ty, T.VectorType)
            # splat via an initializer list: the older `{0} + x` trick
            # loses the sign of -0.0 (0.0 + -0.0 == +0.0) and is not
            # bit-exact for NaN payloads
            sty = self.ctype(src)
            elems = ", ".join(["_b"] * ty.count)
            return (f"({{ {sty} _b = ({inner}); "
                    f"({self.ctype(ty)}){{{elems}}}; }})")
        if e.kind == "vector":
            assert isinstance(ty, T.VectorType)
            if isinstance(src, T.VectorType) and src.elem.isfloat() \
                    and ty.elem.isintegral():
                # defined float->int: saturating, elementwise (a raw
                # __builtin_convertvector is UB out of range)
                helper = self._sat_helper(src.elem, ty.elem)
                sty, dty = self.ctype(src), self.ctype(ty)
                return (f"({{ {sty} _s = ({inner}); {dty} _d; "
                        f"for (int _i = 0; _i < {ty.count}; _i++) "
                        f"_d[_i] = {helper}(_s[_i]); _d; }})")
            if isinstance(src, T.VectorType) and ty.elem.islogical():
                sty, dty = self.ctype(src), self.ctype(ty)
                return (f"({{ {sty} _s = ({inner}); {dty} _d; "
                        f"for (int _i = 0; _i < {ty.count}; _i++) "
                        f"_d[_i] = _s[_i] != 0; _d; }})")
            return f"__builtin_convertvector({inner}, {self.ctype(ty)})"
        if e.kind == "numeric":
            if isinstance(ty, T.PrimitiveType) and ty.islogical():
                # Terra bools are always 0/1; a raw (uint8_t) cast would
                # keep other bit patterns alive (e.g. [int32]([bool](4)))
                return f"((uint8_t)(({inner}) != 0))"
            if isinstance(ty, T.PrimitiveType) and ty.isintegral() \
                    and isinstance(src, T.PrimitiveType) and src.isfloat():
                return f"{self._sat_helper(src, ty)}({inner})"
            return f"(({self.ctype(ty)})({inner}))"
        if e.kind in ("pointer", "ptr-int", "int-ptr"):
            return f"(({self.ctype(ty)})({inner}))"
        raise CompileError(f"cannot emit cast kind {e.kind!r}")

    def _ctor(self, e: tast.TCtor) -> str:
        ty = e.type
        inits = ", ".join(self._ev(x) for x in e.inits)
        if isinstance(ty, T.ArrayType):
            return f"(({self.ctype(ty)}){{{{{inits}}}}})"
        if not e.inits:
            return f"(({self.ctype(ty)}){{0}})"
        return f"(({self.ctype(ty)}){{{inits}}})"

    def _unop(self, e: tast.TUnOp) -> str:
        inner = self._ev(e.operand)
        ty = e.type
        if e.op == "-":
            # -(INT8_MIN) etc. escapes the narrow range via C promotion
            return self._narrow(f"(-({inner}))", ty)
        if e.op == "not":
            if ty is T.bool_:
                return f"((uint8_t)(!({inner})))"
            if isinstance(ty, T.VectorType) and ty.islogical():
                return f"(({inner}) ^ 1)"
            return f"(~({inner}))"
        raise CompileError(f"cannot emit unary {e.op!r}")

    _C_OPS = {"+": "+", "-": "-", "*": "*", "/": "/", "%": "%",
              "<": "<", ">": ">", "<=": "<=", ">=": ">=",
              "==": "==", "~=": "!=", "<<": "<<", ">>": ">>",
              "&": "&", "|": "|", "^": "^", "and": "&", "or": "|"}

    def _binop(self, e: tast.TBinOp) -> str:
        lhs, rhs = self._ev(e.lhs), self._ev(e.rhs)
        if _order_sensitive(e.lhs) and _order_sensitive(e.rhs):
            # pin left-to-right operand evaluation (C leaves it
            # unspecified): materialize both sides in source order, then
            # apply the operator to the temporaries
            lt = self.ctype(e.lhs.type)
            rt = self.ctype(e.rhs.type)
            inner = self._binop_apply(e, "_seql", "_seqr")
            return (f"({{ {lt} _seql = ({lhs}); {rt} _seqr = ({rhs}); "
                    f"{inner}; }})")
        return self._binop_apply(e, lhs, rhs)

    def _binop_apply(self, e: tast.TBinOp, lhs: str, rhs: str) -> str:
        op = self._C_OPS[e.op]
        lt = e.lhs.type
        ty = e.type
        # float modulo lowers to fmod
        if e.op == "%" and (lt.isfloat() and isinstance(lt, T.PrimitiveType)):
            fn = "__builtin_fmodf" if lt is T.float32 else "__builtin_fmod"
            return f"{fn}({lhs}, {rhs})"
        if e.op in ("<", ">", "<=", ">=", "==", "~="):
            if isinstance(e.type, T.VectorType):
                # GCC comparisons give int vectors of -1/0; normalize to
                # our uint8 bool vectors
                return (f"__builtin_convertvector((({lhs}) {op} ({rhs})) & 1, "
                        f"{self.ctype(e.type)})")
            return f"((uint8_t)(({lhs}) {op} ({rhs})))"
        # integer / and % go through guarded helpers: a zero divisor traps
        # (TrapError in the host, like the interpreter) instead of a
        # process-killing SIGFPE, and INT_MIN/-1 wraps instead of trapping;
        # a constant divisor that is neither does neither
        if e.op in ("/", "%") and isinstance(ty, T.PrimitiveType) \
                and ty.isintegral():
            if isinstance(e.rhs, tast.TConst) and e.rhs.value not in (0, -1):
                return f"(({self.ctype(ty)})(({lhs}) {op} ({rhs})))"
            return f"{self._div_helper(e.op, ty)}({lhs}, {rhs})"
        if e.op in ("/", "%") and isinstance(ty, T.VectorType) \
                and ty.elem.isintegral():
            helper = self._div_helper(e.op, ty.elem)
            cty = self.ctype(ty)
            return (f"({{ {cty} _a = ({lhs}); {cty} _b = ({rhs}); "
                    f"for (int _i = 0; _i < {ty.count}; _i++) "
                    f"_a[_i] = {helper}(_a[_i], _b[_i]); _a; }})")
        if e.op in ("<<", ">>"):
            # defined shift semantics: the count is masked by width-1
            # (LLVM/x86 behaviour); C leaves count >= width undefined
            if isinstance(ty, T.PrimitiveType) and ty.isintegral():
                mask = ty.bytes * 8 - 1
                return self._narrow(
                    f"(({lhs}) {op} (({rhs}) & {mask}))", ty)
            if isinstance(ty, T.VectorType) and ty.elem.isintegral():
                mask = ty.elem.sizeof() * 8 - 1
                return f"(({lhs}) {op} (({rhs}) & {mask}))"
        if e.op in ("+", "-", "*"):
            # sub-int results wrap at their Terra width, not at C's
            # promoted int width
            return self._narrow(f"(({lhs}) {op} ({rhs}))", ty)
        return f"(({lhs}) {op} ({rhs}))"

    def _intrinsic(self, e: tast.TIntrinsic) -> str:
        name = e.name
        if name == "prefetch":
            args = [self._ev(e.args[0])]
            for hint in e.args[1:3]:
                if not isinstance(hint, tast.TConst):
                    raise CompileError(
                        "prefetch hint arguments must be constants")
                args.append(str(int(hint.value)))
            return f"__builtin_prefetch((const void*)({args[0]})" + \
                "".join(f", {a}" for a in args[1:]) + ")"
        if name == "fence":
            return "__sync_synchronize()"
        if name in ("sqrt", "fabs", "floor", "ceil"):
            ty = e.type
            arg = self._ev(e.args[0])
            if isinstance(ty, T.VectorType):
                return self._elementwise_builtin(name, ty, [arg])
            suffix = "f" if ty is T.float32 else ""
            return f"__builtin_{name}{suffix}({arg})"
        if name == "select":
            cond, a, b = (self._ev(x) for x in e.args)
            ty = e.type
            if isinstance(ty, T.VectorType):
                # bitwise blend (gcc's vector ternary is C++-only): widen
                # the bool lanes to all-ones masks at the operand width,
                # then (a & m) | (b & ~m) through integer views
                cty = self.ctype(ty)
                isize = {1: T.int8, 2: T.int16, 4: T.int32, 8: T.int64}
                mask_ty = T.vector(isize[ty.elem.sizeof()], ty.count)
                mty = self.ctype(mask_ty)
                mask = (f"-__builtin_convertvector(({cond}), {mty})")
                # peephole: a direct vector comparison already produces an
                # all-ones native mask at its operands' width — skip the
                # bool round-trip entirely when the widths line up
                cond_node = e.args[0]
                if (isinstance(cond_node, tast.TBinOp)
                        and cond_node.op in ("<", ">", "<=", ">=", "==", "~=")
                        and isinstance(cond_node.lhs.type, T.VectorType)
                        and cond_node.lhs.type.elem.sizeof()
                        == ty.elem.sizeof()):
                    op = self._C_OPS[cond_node.op]
                    mask = (f"(({mty})((({self._ev(cond_node.lhs)}) {op} "
                            f"({self._ev(cond_node.rhs)}))))")
                return (f"({{ {mty} _m = {mask}; "
                        f"{cty} _a = ({a}); {cty} _b = ({b}); "
                        f"{mty} _r = ((*({mty}*)&_a) & _m) | "
                        f"((*({mty}*)&_b) & ~_m); *({cty}*)&_r; }})")
            # select is call-like: both branches are always evaluated
            cty = self.ctype(ty)
            return (f"({{ {cty} _a = ({a}); {cty} _b = ({b}); "
                    f"({cond}) ? _a : _b; }})")
        if name == "vload":
            # unaligned vector load: memcpy compiles to one movups-class
            # instruction at -O1+; vector sizes here are always exact
            # (power-of-two lane counts), so sizeof covers just the lanes
            cty = self.ctype(e.type)
            addr = self._ev(e.args[0])
            return (f"({{ {cty} _v; __builtin_memcpy(&_v, "
                    f"(const void*)({addr}), sizeof _v); _v; }})")
        if name == "vstore":
            cty = self.ctype(e.args[1].type)
            addr = self._ev(e.args[0])
            value = self._ev(e.args[1])
            return (f"({{ {cty} _v = ({value}); __builtin_memcpy("
                    f"(void*)({addr}), &_v, sizeof _v); (void)0; }})")
        if name in ("fmin", "fmax"):
            ty = e.type
            a, b = self._ev(e.args[0]), self._ev(e.args[1])
            cmp = "<" if name == "fmin" else ">"
            if isinstance(ty, T.VectorType):
                cty = self.ctype(ty)
                return (f"({{ {cty} _a = ({a}); {cty} _b = ({b}); "
                        f"for (int _i = 0; _i < {ty.count}; _i++) "
                        f"_a[_i] = _a[_i] {cmp} _b[_i] ? _a[_i] : _b[_i]; "
                        f"_a; }})")
            cty = self.ctype(ty)
            return (f"({{ {cty} _a = ({a}); {cty} _b = ({b}); "
                    f"_a {cmp} _b ? _a : _b; }})")
        raise CompileError(f"cannot emit intrinsic {name!r}")

    def _elementwise_builtin(self, name: str, ty: T.VectorType,
                             args: list[str]) -> str:
        cty = self.ctype(ty)
        suffix = "f" if ty.elem is T.float32 else ""
        return (f"({{ {cty} _a = ({args[0]}); "
                f"for (int _i = 0; _i < {ty.count}; _i++) "
                f"_a[_i] = __builtin_{name}{suffix}(_a[_i]); _a; }})")
