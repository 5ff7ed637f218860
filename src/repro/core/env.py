"""The shared lexical environment.

The paper's central design point: "the evaluation of Lua and the
generation of Terra code share the same lexical environment" (§4.1).  In
this reproduction the meta-language is Python, so "the same lexical
environment" means the Python frame in which ``terra(...)`` / ``quote_(...)``
was invoked: its locals, enclosing closure variables, and globals.

:func:`capture` snapshots that frame.  During specialization, Terra-scope
variables (function parameters, ``var`` declarations) are overlaid on top
of it so that escapes can refer to in-scope Terra variables as quoted
symbols — the paper's SVAR rule ("Variables in Terra can refer to
variables defined in Lua and in Terra; they behave as if they were
escaped").
"""

from __future__ import annotations

import builtins
import sys
from typing import Mapping, Optional

from ..errors import SpecializeError


_TERRA_GLOBALS: Optional[dict] = None


def _terra_globals() -> dict:
    """Names that are implicitly in scope in Terra code — the primitive
    type names and core type constructors (Terra installs these as Lua
    globals; we resolve them after the user's scope but before Python
    builtins, so Terra's ``int``/``float``/``bool`` win over Python's)."""
    global _TERRA_GLOBALS
    if _TERRA_GLOBALS is None:
        from . import types as T
        from .specialize import sizeof
        g: dict = {
            name: ty for name, ty in [
                ("int", T.int32), ("uint", T.uint32),
                ("long", T.int64), ("ulong", T.uint64),
                ("int8", T.int8), ("int16", T.int16),
                ("int32", T.int32), ("int64", T.int64),
                ("uint8", T.uint8), ("uint16", T.uint16),
                ("uint32", T.uint32), ("uint64", T.uint64),
                ("float", T.float32), ("double", T.float64),
                ("bool", T.bool_), ("rawstring", T.rawstring),
                ("intptr", T.int64), ("opaque", T.OpaqueType("opaque")),
            ]
        }
        g["vector"] = T.vector
        g["arrayof"] = T.array
        g["tuple"] = T.tuple_of
        g["sizeof"] = sizeof
        from .intrinsics import vectorof
        g["vectorof"] = vectorof
        _TERRA_GLOBALS = g
    return _TERRA_GLOBALS


class Environment:
    """A captured meta-language environment plus the Terra scope overlay.
    It owns ``locals_map``: whoever builds one hands over a fresh dict."""

    def __init__(self, locals_map: dict, globals_map: dict,
                 description: str = "<environment>"):
        self.locals = locals_map
        self.globals = globals_map
        self.description = description

    # -- lookups --------------------------------------------------------------
    _MISSING = object()

    def lookup(self, name: str, default=_MISSING):
        if name in self.locals:
            return self.locals[name]
        if name in self.globals:
            return self.globals[name]
        terra_global = _terra_globals().get(name)
        if terra_global is not None:
            return terra_global
        if hasattr(builtins, name):
            return getattr(builtins, name)
        if default is not self._MISSING:
            return default
        raise SpecializeError(
            f"variable {name!r} is not defined in Terra scope or the "
            f"enclosing {self.description}")

    def contains(self, name: str) -> bool:
        sentinel = object()
        return self.lookup(name, sentinel) is not sentinel

    # -- escape evaluation -------------------------------------------------------
    def eval_escape(self, escape, terra_scope: Optional[Mapping] = None):
        """Evaluate an :class:`~repro.core.ast.Escape` in this environment.

        ``terra_scope`` maps in-scope Terra variable names to their quoted
        symbol references; it shadows the captured meta bindings, exactly
        as lexical scoping demands.
        """
        # a new dict takes the escape's own bindings ([(k := 3)]): a dict,
        # not a ChainMap, which eval would search through Python calls
        local_view = {**self.locals, **terra_scope} if terra_scope \
            else self.locals
        try:
            value = eval(escape.code_object(), self.globals,  # noqa: S307
                         local_view)
        except SpecializeError:
            raise
        except Exception as exc:
            raise SpecializeError(
                f"error evaluating escape [{escape.code}]: {exc!r}",
                escape.location) from exc
        if escape.npointer:
            from . import types as T
            coerced = T.coerce_to_type(value)
            if coerced is None:
                raise SpecializeError(
                    f"escape [&...] requires a Terra type, got {value!r}",
                    escape.location)
            value = coerced
            for _ in range(escape.npointer):
                value = T.pointer(value)
        return value

    def child_with(self, extra: Mapping) -> "Environment":
        merged = dict(self.locals)
        merged.update(extra)
        return Environment(merged, self.globals, self.description)


#: frames whose dynamic parent IS their lexical parent (Python < 3.12).
#: Lambdas are excluded: they may be *called* from anywhere, so walking
#: f_back would capture the wrong scope.
_COMPREHENSION_FRAMES = {"<listcomp>", "<genexpr>", "<dictcomp>", "<setcomp>"}


def capture(depth: int = 1) -> Environment:
    """Capture the Python lexical environment ``depth`` frames above the
    caller of :func:`capture`.

    ``depth=1`` means "my caller's caller" — i.e. the frame that invoked
    the public API function which called ``capture``.

    Comprehension (and lambda) frames hide the enclosing function's
    locals on Python < 3.12, so those are merged in: names used only
    inside Terra source strings never create Python closure cells, and
    ``[quote_("[acc] = ...") for i in ...]`` must still see ``acc``.
    """
    frame = sys._getframe(depth + 1)
    try:
        description = f"Python frame {frame.f_code.co_name!r}"
        merged = dict(frame.f_locals)
        outer = frame
        while outer.f_code.co_name in _COMPREHENSION_FRAMES \
                and outer.f_back is not None:
            outer = outer.f_back
            for name, value in outer.f_locals.items():
                merged.setdefault(name, value)
        return Environment(merged, frame.f_globals, description)
    finally:
        del frame


def from_mapping(mapping: Optional[Mapping]) -> Environment:
    """Build an environment from an explicit dict (the ``env=`` keyword)."""
    if mapping is None:
        return Environment({}, {}, "<empty environment>")
    if isinstance(mapping, Environment):
        return mapping
    return Environment(dict(mapping), {}, "<explicit environment>")
