"""Linking: connected-component typechecking and compilation.

Paper Figure 4 (TYFUN1/TYFUN2): before a Terra function runs, every
function in the connected component of its references must typecheck —
"they ensure all functions that are in the connected component of a
function are typechecked before the function is run."  A reference to a
declared-but-undefined function is a :class:`LinkError`.

Typechecking success is cached (definitions are immutable, so success is
stable); failures are *not* cached, because the result of typechecking can
"change monotonically from a type-error to success as the functions it
references are defined" — and because type reflection (``__cast``,
``__finalizelayout``) may legitimately add capabilities to types between
attempts.

Lazy also means *not at all* when the answer is on disk:
:func:`ensure_compiled` first asks the backend's structural memo whether a
component with these specialized trees was compiled before, by any
process, and binds that artifact with no typed IR built (docs/INTERNALS.md,
"per structure").  Later readers of ``fn.typed`` come through
:func:`ensure_typechecked` / :func:`pipelined_component`, so a hit defers
this module's work, never removes it.
"""

from __future__ import annotations

import hashlib
import threading

from ..errors import LinkError, TypeCheckError
from .. import config, trace
from ..trace.metrics import registry
from . import sast
from .function import TerraFunction

#: functions currently being typechecked (cycle detection).  Thread-local:
#: recursion is a property of one traversal, and two *threads* visiting the
#: same function concurrently (the compile service makes that easy) must
#: not be mistaken for a recursive reference.
_tls = threading.local()


def _in_progress() -> set[int]:
    try:
        return _tls.in_progress
    except AttributeError:
        _tls.in_progress = set()
        return _tls.in_progress


def typecheck_function(fn: TerraFunction) -> None:
    """Typecheck one function (no-op for externals and cached results)."""
    if fn.typed is not None or fn.is_external:
        return
    if not fn.isdefined():
        raise LinkError(
            f"Terra function {fn.name!r} is declared but not defined")
    in_progress = _in_progress()
    if fn.uid in in_progress:
        raise TypeCheckError(
            f"function {fn.name!r} is recursive (directly or mutually) and "
            f"needs an explicit return type annotation")
    from .typechecker import TypeChecker
    in_progress.add(fn.uid)
    try:
        with trace.span(f"typecheck:{fn.name}", cat="typecheck"):
            typed = TypeChecker(fn).run()
    finally:
        in_progress.discard(fn.uid)
    if fn.typed is None:  # a racing thread may have typechecked it already
        fn.typed = typed
        fn._type = typed.type


def connected_component(fn: TerraFunction) -> list[TerraFunction]:
    """All functions reachable from ``fn`` through direct references,
    including ``fn`` itself, in deterministic discovery order.  Requires
    the component to be fully typechecked."""
    seen: dict[int, TerraFunction] = {}
    order: list[TerraFunction] = []
    with trace.span(f"component:{fn.name}", cat="typecheck") as sp:
        stack = [fn]
        while stack:
            f = stack.pop()
            if f.uid in seen:
                continue
            seen[f.uid] = f
            order.append(f)
            if f.is_external:
                continue
            typecheck_function(f)
            assert f.typed is not None
            for ref in f.typed.referenced_functions:
                if ref.uid not in seen:
                    stack.append(ref)
        sp.set(component_size=len(order))
    return order


def ensure_typechecked(fn: TerraFunction) -> None:
    """Typecheck ``fn`` and its whole connected component (paper Fig. 4)."""
    connected_component(fn)


def pipelined_component(fn: TerraFunction, backend,
                        **span_args) -> list[TerraFunction]:
    """Typecheck ``fn``'s connected component and build every member's
    typed IR at the backend's requested pipeline level.

    Backends receive the component *after* it and read each body through
    ``repro.passes.pipelined_body``, which builds a level once per
    function — so a function shared by two compiles is only transformed
    once, and what a backend reads never depends on compile order.
    """
    from ..passes import run_function_pipeline
    level = getattr(backend, "pipeline_level", None)
    with trace.span(f"link:{fn.name}", cat="typecheck",
                    backend=backend.name, level=level, **span_args) as sp:
        component = connected_component(fn)
        for member in component:
            run_function_pipeline(member, level)
        sp.set(component_size=len(component))
    return component


def structural_digest(fn: TerraFunction, context: str) -> tuple:
    """``(members, digest)`` of ``fn``'s reachable component, read off the
    *specialized* trees: the members in discovery order and a hash of
    ``context`` plus, per member, its name, :class:`~repro.core.sast.
    Fingerprint` digest and schedule, its callees as component
    indices (cycles are fine), its symbols numbered by first occurrence
    across the component — externals as symbol name + type.  ``(None,
    reason)`` when typechecking a member depends on state no tree shows: a
    named struct's method tables, a global's or callback's address, a
    constant of foreign type, a callee still undefined."""
    members, index, symbols, parts = [fn], {fn.uid: 0}, {}, [context]
    for f in members:                   # grows as callees are discovered
        if f.is_external:
            parts.append((f.external_name, sast.type_token(f.external_type)))
            if parts[-1][1] is None:
                return None, "struct"
            continue
        fp = f.fingerprint
        if fp is None or fp.why:
            return None, "undefined" if fp is None else fp.why
        for ref in fp.refs:
            if ref.uid not in index:
                index[ref.uid] = len(members)
                members.append(ref)
        schedule = getattr(f, "schedule", None)
        parts.append((f.name, fp.digest,
                      schedule and (schedule.key(), schedule.strict),
                      [index[ref.uid] for ref in fp.refs],
                      [symbols.setdefault(s, len(symbols))
                       for s in fp.symbols]))
    return members, hashlib.sha256(repr(parts).encode()).hexdigest()[:32]


def ensure_compiled(fn: TerraFunction, backend):
    """Submit ``fn``'s connected component to ``backend`` and return the
    :class:`~repro.backend.base.CompileTicket` whose ``result()`` binds it
    and yields ``fn``'s callable handle — the one compile path: a caller
    that wants the handle now calls ``result()`` at once.

    Typechecking, the IR pipeline and emission run synchronously in the
    caller (they touch shared linker state); only the native compile
    overlaps, so callers that submit many units up front (the §6.1
    auto-tuner) get them built concurrently by the :mod:`repro.buildd`
    pool.  None of the three runs when the structural memo knows the
    artifact; ``REPRO_TERRA_DUMP_IR`` wants to watch them and bypasses it.
    """
    outcome = ticket = memo = None
    if fn.typed is None and not config.get("REPRO_TERRA_DUMP_IR"):
        outcome, ticket, memo = backend.memoized_unit(fn)
    if outcome is not None:
        registry().add("spec.memo." + {"hit": "hits", "miss": "misses"}.get(
            outcome, outcome.replace(":", ".")))
    if outcome == "hit":
        return ticket
    component = pipelined_component(
        fn, backend, **({"memo": outcome} if outcome else {}))
    return backend.submit_unit(fn, component, memo)
