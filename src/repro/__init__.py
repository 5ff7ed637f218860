"""repro — a Python reproduction of *Terra: A Multi-Stage Language for
High-Performance Computing* (DeVito et al., PLDI 2013).

Python plays the paper's Lua role (the high-level meta-language); Terra is
reproduced as an embedded low-level language that is **staged** from
Python:

>>> from repro import terra
>>> min_ = terra('''
... terra min(a : int, b : int) : int
...   if a < b then return a else return b end
... end
... ''')
>>> min_(3, 4)
3

Terra code shares the invoking Python frame's lexical environment: escapes
``[ ... ]`` evaluate Python expressions during *eager specialization*, and
free Terra names resolve to Python values (types, functions, constants,
quotes, symbols).  Compiled Terra code then executes independently of the
Python runtime, via gcc-compiled native code (default) or the reference
interpreter.

Public surface
--------------
* staging:  :func:`terra`, :func:`quote_`, :func:`expr`, :func:`symbol`,
  :func:`symmat`, :func:`macro`, :func:`declare`, :func:`struct`
* types:    ``int8..int64, uint8..uint64, int_, uint, float_, double,
  bool_, rawstring``, :func:`pointer`, :func:`array`, :func:`vector`,
  :func:`functype`, :func:`tuple_of`
* values:   :func:`global_`, :func:`constant`, :func:`pycallback`
* intrinsics: ``prefetch, fence, sqrt, fabs, fmin, fmax``, :data:`sizeof`
* C interop: :func:`includec`, :func:`saveobj` (see :mod:`repro.cinterop`)
* backends: :func:`set_default_backend` (``"c"`` or ``"interp"``)
* compile service: :mod:`repro.buildd` — pooled parallel compilation
  (``fn.compile_async()``), a content-addressed artifact cache, and
  telemetry (``repro.buildd.stats()``, ``python -m repro.buildd``)
"""

from __future__ import annotations

from typing import Optional

from .errors import (CompileError, FFIError, LinkError, SpecializeError,
                     TerraError, TerraSyntaxError, TrapError, TypeCheckError)
# imported early so REPRO_TERRA_TRACE / REPRO_TERRA_PROFILE take effect
# for any process that imports repro (see docs/OBSERVABILITY.md)
from . import trace as trace
from .core import ast as _ast
from .core import types as _types
from .core import parser as _parser
from .core.env import Environment, capture as _capture
from .core.function import (Constant, GlobalVar, PyCallback, TerraFunction,
                            constant, declare, global_, pycallback)
from .core.intrinsics import (fabs, fence, fmax, fmin, prefetch,
                              select, sqrt, vectorof)
from .core.intrinsics import ceil_ as ceil, floor_ as floor
from .core.quotes import Quote
from .core.specialize import Macro, Specializer, macro, sizeof
from .core.symbols import Symbol, symbol, symmat
from .core.types import (ArrayType, FunctionType, PointerType, PrimitiveType,
                         StructType, TupleType, Type, VectorType, array,
                         bool_, double, float32, float64, float_, functype,
                         int16, int32, int64, int8, int_, long_, pointer,
                         rawstring, tuple_of, uint, uint16, uint32, uint64,
                         uint8, unit, vector)
from .backend.base import (default_backend, get_backend, resolve_backend,
                           set_default_backend)
from .frontend.pyast import addr, deref

#: alias for :func:`pointer`, reading naturally in ``@terra`` annotations
#: (``img: ptr(float)``)
ptr = pointer

__version__ = "1.0.0"

__all__ = [
    # staging
    "terra", "quote_", "expr", "symbol", "symmat", "macro", "declare",
    "struct", "Quote", "Symbol", "Macro", "TerraFunction", "Specializer",
    "Environment", "addr", "deref",
    # types
    "Type", "PrimitiveType", "PointerType", "ArrayType", "VectorType",
    "StructType", "TupleType", "FunctionType",
    "int8", "int16", "int32", "int64", "uint8", "uint16", "uint32", "uint64",
    "int_", "uint", "long_", "float_", "double", "float32", "float64",
    "bool_", "rawstring", "unit",
    "pointer", "ptr", "array", "vector", "functype", "tuple_of",
    # values
    "global_", "constant", "pycallback", "GlobalVar", "Constant",
    "PyCallback",
    # intrinsics
    "sizeof", "prefetch", "fence", "sqrt", "fabs", "floor", "ceil",
    "fmin", "fmax", "select", "vectorof",
    # C interop
    "includec", "saveobj",
    # backends
    "set_default_backend", "default_backend", "get_backend",
    "resolve_backend",
    # errors
    "TerraError", "TerraSyntaxError", "SpecializeError", "TypeCheckError",
    "LinkError", "CompileError", "TrapError", "FFIError",
]


def _environment(env, depth: int = 2) -> Environment:
    """The caller's lexical environment, optionally overlaid with an
    explicit ``env`` mapping."""
    captured = _capture(depth)
    if env is None:
        return captured
    if isinstance(env, Environment):
        return env
    return captured.child_with(env)


class Namespace(dict):
    """The result of a multi-definition ``terra()`` call: a dict of the
    defined functions and structs, with attribute access.

    Attribute lookup prefers the namespace's *entries* over dict methods,
    so a Terra function named ``get`` or ``clear`` is reachable as
    ``ns.get`` (use ``dict.get(ns, ...)`` for the dict method)."""

    is_terra_namespace = True

    def __getattribute__(self, name: str):
        if not name.startswith("_") and dict.__contains__(self, name):
            return dict.__getitem__(self, name)
        return super().__getattribute__(name)

    def __getattr__(self, name: str):
        raise AttributeError(name)


def terra(source=None, env=None, filename: str = "<terra>"):
    """Define Terra functions and structs — from source text or a
    decorated Python function.

    With a **string**, specialization runs **eagerly**, in the caller's
    lexical environment (paper §4.1).  Returns the single defined
    object, or a :class:`Namespace` when the source contains several
    definitions.

    With a **callable**, ``terra`` acts as a decorator: the
    type-annotated Python function is lowered through
    :mod:`repro.frontend.pyast` into the same untyped AST and shared
    specialize→typecheck→compile path (see ``docs/FRONTENDS.md``)::

        @terra
        def add(a: int32, b: int32) -> int32:
            return a + b

    Defining ``terra f(...)`` when ``f`` already names an *undefined*
    Terra function (from :func:`declare`) fills in that declaration —
    the paper's ``ter``/``tdecl`` split that enables mutual recursion.
    """
    if callable(source) and not isinstance(source, (str, bytes)):
        from .frontend.pyast import define_pyfunc
        return define_pyfunc(source, _environment(env))
    if not isinstance(source, str):
        raise TerraSyntaxError(
            f"terra() takes Terra source text or a Python function to "
            f"decorate, got {source!r}")
    environment = _environment(env)
    with trace.span("terra", cat="stage", filename=filename) as tsp:
        with trace.span("parse", cat="stage", filename=filename) as psp:
            defs = _parser.parsed("toplevel", source, filename, span=psp)
        if not defs:
            raise TerraSyntaxError("no Terra definitions in source")
        results: dict[str, object] = {}
        overlay: dict[str, object] = {}
        single: object = None
        for d in defs:
            scoped_env = environment.child_with(overlay)
            if isinstance(d, _ast.StructDef):
                single = _define_struct(d, scoped_env, results, overlay)
            else:
                assert isinstance(d, _ast.FunctionDef)
                single = _define_function(d, scoped_env, results, overlay)
        tsp.set(definitions=len(results))
    if len(results) == 1:
        return single
    return Namespace(results)


def _define_struct(d: _ast.StructDef, env: Environment,
                   results: dict, overlay: dict) -> StructType:
    st = _types.StructType(d.name)
    # bind the name before evaluating entry types: self-referential
    # structs (struct Node { next : &Node }) must see themselves.
    overlay[d.name] = st
    with trace.span(f"specialize:{d.name}", cat="stage", kind="struct"):
        spec = Specializer(env.child_with({d.name: st}))
        _fill_struct_entries(st, d.entries, spec)
    results[d.name] = st
    return st


def _fill_struct_entries(st: StructType, entries, spec: Specializer) -> None:
    for item in entries:
        field, payload = item
        if field == "union" and isinstance(payload, list):
            st.add_union([(name, spec.eval_type(texpr))
                          for name, texpr in payload])
        else:
            st.add_entry(field, spec.eval_type(payload))


def _define_function(d: _ast.FunctionDef, env: Environment,
                     results: dict, overlay: dict):
    # method definition: terra Type:name(...)
    if d.method_name is not None:
        spec = Specializer(env)
        receiver = spec.meta_eval(_namepath_expr(d.namepath, d.location))
        if not isinstance(receiver, StructType):
            raise SpecializeError(
                f"method receiver {'.'.join(d.namepath)} is not a struct "
                f"type", d.location)
        fn = TerraFunction(f"{receiver.name}_{d.method_name}", d.location)
        receiver.methods[d.method_name] = fn
        spec = Specializer(env)
        with trace.span(f"specialize:{fn.name}", cat="stage", kind="method"):
            params, ptypes, rettype, body = spec.spec_function(
                d, self_type=_types.pointer(receiver))
        fn.define(params, ptypes, rettype, body)
        results[f"{receiver.name}_{d.method_name}"] = fn
        return fn
    # plain (possibly anonymous, possibly dotted-path) function
    name = d.namepath[-1] if d.namepath else "anon"
    fn: Optional[TerraFunction] = None
    existing = None
    if d.namepath and len(d.namepath) == 1:
        existing = env.lookup(name, None)
    elif d.namepath:
        spec = Specializer(env)
        base = spec.meta_eval(_namepath_expr(d.namepath[:-1], d.location))
        existing = _namespace_get(base, name)
    if isinstance(existing, TerraFunction) and not existing.isdefined():
        fn = existing  # fill in a forward declaration
    if fn is None:
        fn = TerraFunction(name, d.location)
    # the function's own name resolves to itself inside the body
    # (self-recursion), and to later definitions in this terra() call.
    body_env = env.child_with({name: fn}) if d.namepath else env
    spec = Specializer(body_env)
    with trace.span(f"specialize:{name}", cat="stage", kind="function"):
        params, ptypes, rettype, body = spec.spec_function(d)
    fn.define(params, ptypes, rettype, body)
    if d.namepath and len(d.namepath) > 1:
        sp = Specializer(env)
        base = sp.meta_eval(_namepath_expr(d.namepath[:-1], d.location))
        _namespace_set(base, name, fn)
    if d.namepath:
        overlay[name] = fn
    results[name if d.namepath else f"anon_{fn.uid}"] = fn
    return fn


def _namepath_expr(path: list[str], location) -> _ast.Expr:
    expr_node: _ast.Expr = _ast.Name(path[0], location)
    for part in path[1:]:
        expr_node = _ast.Select(expr_node, part, location)
    return expr_node


def _namespace_get(base, name: str):
    if isinstance(base, dict):
        return base.get(name)
    return getattr(base, name, None)


def _namespace_set(base, name: str, value) -> None:
    if isinstance(base, dict):
        base[name] = value
    else:
        setattr(base, name, value)


def quote_(source: str, env=None, filename: str = "<quote>") -> Quote:
    """Create a statements quotation (Terra's ``quote ... end``), eagerly
    specialized in the caller's lexical environment.  An optional trailing
    ``in e`` clause makes it splicable in expression position."""
    environment = _environment(env)
    qbody = _parser.parsed("quote", source, filename)
    return Specializer(environment).spec_quote(qbody)


def expr(source: str, env=None, filename: str = "<expr>") -> Quote:
    """Create a single-expression quotation (Terra's back-tick)."""
    environment = _environment(env)
    tree = _parser.parsed("expr", source, filename)
    return Quote.from_expr(Specializer(environment).spec_expr(tree))


def struct(source_or_name: str, env=None) -> StructType:
    """Create a struct type.

    ``struct("Complex")`` makes an empty struct (fill ``entries`` via
    reflection, as the paper does for Complex); any source containing
    braces is parsed: ``struct("struct Complex { real : float, imag :
    float }")``.
    """
    if "{" not in source_or_name:
        return _types.StructType(source_or_name)
    environment = _environment(env)
    defs = _parser.parsed("toplevel", source_or_name, "<terra>")
    if len(defs) != 1 or not isinstance(defs[0], _ast.StructDef):
        raise TerraSyntaxError("struct() expects exactly one struct definition")
    d = defs[0]
    st = _types.StructType(d.name)
    spec = Specializer(environment.child_with({d.name: st}))
    _fill_struct_entries(st, d.entries, spec)
    return st


def includec(header: str):
    """Import C declarations (the paper's ``terralib.includec``)."""
    from .cinterop.includec import includec as _includec
    return _includec(header)


def saveobj(path: str, functions: dict) -> None:
    """Save Terra functions as a linkable object file / C source / shared
    object, chosen by the file extension (the paper's
    ``terralib.saveobj``)."""
    from .cinterop.saveobj import saveobj as _saveobj
    _saveobj(path, functions)
