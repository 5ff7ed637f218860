"""The pass manager — one verified, pass-managed pipeline over the typed IR.

Terra separates *staging* (Lua builds the program) from *execution* (LLVM
optimizes and runs it).  Our reproduction's analog of the optimizer is
this pipeline: an ordered list of individually-switchable passes that
every backend consumes through :func:`pipelined_body`.  It only
canonicalizes: scalar optimization such as loop-invariant hoisting is
left to gcc ``-O3``, and both backends read the level C ships
(``PIPELINE_CANON``), so the interpreter checks the IR that is compiled.
Vectorization (level 2) is opt-in.  A typechecked tree is read-only; a
pipeline level is a pure function of it — a clone run through
``LEVEL_PASSES[level]``, built **once per function and level** — so what
a backend compiles never depends on which backend compiled first.

Environment switches (docs/ENVIRONMENT.md): ``REPRO_TERRA_PIPELINE``
forces a level process-wide, ``REPRO_TERRA_DISABLE_PASSES`` drops passes,
``REPRO_TERRA_DUMP_IR`` prints the IR around a pass (both reject a name
no pass registered), ``REPRO_TERRA_VERIFY_IR`` runs the verifier after
typechecking and after every transform.

Per-pass wall time is merged into the :mod:`repro.buildd` telemetry, so
``python -m repro.buildd --stats`` reports where *IR* time went alongside
where *gcc* time went.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager
from typing import Optional, Sequence

from ..errors import CompileError, ConfigError
from .. import config, trace
from ..trace.metrics import registry

# -- pipeline levels --------------------------------------------------------------

#: raw typed IR, exactly as the typechecker produced it
PIPELINE_NONE = 0
#: canonicalizing cleanups: constant folding, algebraic simplification,
#: dead-local elimination — enough to make equivalent stagings emit
#: byte-identical C (and hit the buildd artifact cache).  What ships: both
#: backends read this level
PIPELINE_CANON = 1
#: opt-in: canonicalization plus auto-vectorization of innermost
#: countable loops (vector IR + scalar epilogue; see passes/vectorize.py)
PIPELINE_VEC = 2

LEVEL_PASSES: dict[int, tuple[str, ...]] = {
    PIPELINE_NONE: (),
    PIPELINE_CANON: ("fold", "simplify", "dce"),
    PIPELINE_VEC: ("fold", "simplify", "vectorize", "dce"),
}


class Pass:
    """One transformation (or analysis) over a typed function body.

    Subclasses set ``name`` and implement :meth:`run`, which rewrites the
    ``body`` of what it is handed — from :func:`pipelined_body` a level's
    own view, never the typechecked tree — and returns True when anything
    changed.
    """

    name: str = "abstract"

    def run(self, typed) -> bool:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<pass {self.name}>"


_REGISTRY: dict[str, type] = {}


def register_pass(cls: type) -> type:
    """Class decorator: make a Pass constructible by name."""
    _REGISTRY[cls.name] = cls
    return cls


def available_passes() -> list[str]:
    _ensure_registered()
    return sorted(_REGISTRY)


def create_pass(name: str) -> Pass:
    _ensure_registered()
    cls = _REGISTRY.get(name)
    if cls is None:
        raise CompileError(
            f"unknown IR pass {name!r} (available: "
            f"{', '.join(sorted(_REGISTRY))})")
    return cls()


def _ensure_registered() -> None:
    """Import the pass modules (each registers itself on import)."""
    from . import (dce, fold, simplify, tileschedule,  # noqa: F401
                   vectorize, verify)


def _registered(var: str, names, also: tuple = ()):
    """``names`` (the value of ``var``), each checked against the pass
    registry — a typo'd pass name must not silently do nothing."""
    known = (*available_passes(), *also)
    for name in names:
        if name not in known:
            raise ConfigError(f"{var}: no pass named {name!r} "
                              f"(registered: {', '.join(known)})")
    return names


#: process-wide level override installed by :func:`pipeline_override`
_level_override: Optional[int] = None


@contextmanager
def pipeline_override(level: int):
    """Force every subsequent pipeline run to ``level`` (tests use level 0
    to compile a function with the raw typed IR)."""
    global _level_override
    saved = _level_override
    _level_override = level
    try:
        yield
    finally:
        _level_override = saved


def resolve_level(level: Optional[int] = None) -> int:
    """The effective pipeline level: override > environment > request."""
    if _level_override is not None:
        return _level_override
    env = config.get("REPRO_TERRA_PIPELINE")
    if env is not None:
        return env
    return PIPELINE_CANON if level is None else level


# -- the manager ------------------------------------------------------------------

class PassManager:
    """An ordered, switchable sequence of IR passes.

    ``passes`` is a sequence of pass names or :class:`Pass` instances;
    names listed in ``REPRO_TERRA_DISABLE_PASSES`` are dropped.  ``verify``
    and ``dump`` default from the environment (see module docstring).
    """

    def __init__(self, passes: Optional[Sequence] = None, *,
                 verify: Optional[bool] = None, dump: Optional[str] = None):
        if passes is None:
            passes = LEVEL_PASSES[PIPELINE_CANON]
        resolved = [create_pass(p) if isinstance(p, str) else p
                    for p in passes]
        disabled = _registered("REPRO_TERRA_DISABLE_PASSES",
                               config.get("REPRO_TERRA_DISABLE_PASSES"))
        self.passes: list[Pass] = [p for p in resolved
                                   if p.name not in disabled]
        self.verify = config.get("REPRO_TERRA_VERIFY_IR") \
            if verify is None else verify
        if dump is None and (dump := config.get("REPRO_TERRA_DUMP_IR")):
            _registered("REPRO_TERRA_DUMP_IR", (dump,), also=("all",))
        self.dump = dump
        #: per-pass records of the most recent :meth:`run`
        self.last_run: list[dict] = []

    def disable(self, name: str) -> None:
        self.passes = [p for p in self.passes if p.name != name]

    def pass_names(self) -> list[str]:
        return [p.name for p in self.passes]

    def run(self, typed) -> list[dict]:
        """Run every pass over ``typed`` (a TypedFunction), in order.

        Returns per-pass records ``{"pass", "seconds", "changed"}`` and
        keeps them in :attr:`last_run`.  With verification on, the
        verifier runs on the input tree and again after every transform.
        """
        from .verify import verify_function
        if self.verify:
            verify_function(typed, where="after typechecking")
        records: list[dict] = []
        for p in self.passes:
            self._dump(typed, p.name, "before")
            t0 = time.perf_counter()
            with trace.span(f"pass:{p.name}", cat="passes",
                            function=getattr(typed, "name", "?")) as sp:
                changed = bool(p.run(typed))
                sp.set(changed=changed)
            seconds = time.perf_counter() - t0
            self._dump(typed, p.name, "after")
            if self.verify and p.name != "verify":
                verify_function(typed, where=f"after pass {p.name!r}")
            records.append(
                {"pass": p.name, "seconds": seconds, "changed": changed})
            # the series ``repro.buildd.stats()["passes"]`` reports
            registry().record_time(f"pass.{p.name}", seconds)
        self.last_run = records
        return records

    def _dump(self, typed, pass_name: str, when: str) -> None:
        if self.dump is None or self.dump not in (pass_name, "all"):
            return
        from ..core.prettyprint import format_typed_ir
        header = f"-- IR {when} pass {pass_name!r} ({typed.name}) --"
        print(header, file=sys.stderr)
        print(format_typed_ir(typed), file=sys.stderr)


# -- per-function pipeline entry points -------------------------------------------

class _LevelView:
    """A TypedFunction facade with a ``body`` of its own — what a level's
    passes (and the verifier between them) run over, so the function's
    typechecked tree is never written."""

    def __init__(self, typed, body):
        self._typed = typed
        self.body = body

    def __getattr__(self, name):
        return getattr(self._typed, name)


def pipelined_body(typed, level: Optional[int] = None):
    """The function body at *exactly* the resolved ``level`` — read-only,
    and the only way anyone gets IR.

    Level 0 is the typechecked tree itself, with an attached
    :mod:`repro.schedule` Schedule lowered onto it by the first request
    (so every level sees the scheduled loops); level *k* is a clone of it
    run through ``LEVEL_PASSES[k]``.  Each is built once, under the
    function's pipeline lock, and a level never depends on which others
    were asked for first — so concurrent compiles neither repeat a pass
    nor see a half-rewritten tree, and equivalent stagings emit
    byte-identical C in any compile order.
    """
    level = resolve_level(level)
    with typed._pipeline_lock:
        bodies = typed._pipeline_bodies
        if not bodies:
            if getattr(typed.func, "schedule", None):
                PassManager(("schedule",)).run(typed)
            bodies[PIPELINE_NONE] = typed.body
        body = bodies.get(level)
        if body is None:
            from ..core.tast import clone
            view = _LevelView(typed, clone(typed.body))
            with trace.span(f"pipeline:{typed.name}", cat="passes",
                            level=level):
                PassManager(LEVEL_PASSES[level]).run(view)
            body = bodies[level] = view.body
        return body


def run_function_pipeline(fn, level: Optional[int] = None) -> None:
    """:func:`pipelined_body` for a TerraFunction, result dropped: build
    (once) the level a compile is about to read.  No-op for externals and
    functions that have not been typechecked yet."""
    typed = getattr(fn, "typed", None)
    if typed is not None and not getattr(fn, "is_external", False):
        pipelined_body(typed, level)
