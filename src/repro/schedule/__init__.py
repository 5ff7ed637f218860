"""repro.schedule — first-class, inspectable tile schedules for staged kernels.

The ROADMAP's generalization of Orion's ad-hoc schedule directives
(vectorize / linebuffer / parallel): a small library of hashable
schedule objects —

* :class:`Block`      — split one axis into size-``S`` chunks (order-preserving),
* :class:`Tile`       — block a perfect loop nest jointly and interchange,
* :class:`Unroll`     — unroll an axis by a factor with a remainder loop,
* :class:`Vectorize`  — force W-lane vectorization of an innermost axis,
* :class:`Parallel`   — dispatch an axis across worker threads
  (:mod:`repro.parallel`, through the function's ``chunked`` twin),
* :class:`Pack`       — copy an operand tile/panel into contiguous scratch
  (consumed by schedule-aware builders, not the generic lowering),

composing into a :class:`Schedule` applied to *any* staged loop nest with
:func:`apply`.  Axes are named by their loop variable (``for i = ...`` is
axis ``"i"``); lowering happens in the ``schedule`` IR pass
(:mod:`repro.passes.tileschedule`), which runs once per function before
any pipeline level — so levels 0–2, both backends, the tiered
dispatcher, tracing, and the buildd artifact cache all see the scheduled
tree with no special cases.  Invalid schedules raise a typed
:class:`~repro.errors.ScheduleError` naming the offending directive, at
construction when the conflict is schedule-internal and at compile time
when it depends on the loop nest.

The pass-manager knobs apply (docs/ENVIRONMENT.md):
``REPRO_TERRA_DISABLE_PASSES=schedule`` ignores attached schedules (naive
kernel, serial dispatch; the ablation baseline switch) and
``REPRO_TERRA_DUMP_IR=schedule`` dumps the IR around the lowering.

See docs/SCHEDULES.md for the lowering contract and the Orion-directive
mapping table.

>>> from repro import terra
>>> from repro.schedule import Block, Vectorize, Schedule, apply
>>> fn = terra('''
... terra saxpy(n : int64, a : float, x : &float, y : &float)
...   for i = 0, n do y[i] = a * x[i] + y[i] end
... end
... ''')
>>> kernel = apply(fn, Schedule([Block("i", 512), Vectorize("i", 8)]))
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from .. import config
from ..errors import ScheduleError

__all__ = [
    "Block", "Tile", "Unroll", "Pack", "Parallel", "Vectorize",
    "Directive", "Schedule", "ScheduledKernel", "ScheduleError",
    "apply", "axes_of", "fuzz_schedule",
]


def _lowering_disabled() -> bool:
    """The pass manager drops the ``schedule`` pass; dispatch must agree."""
    return "schedule" in config.get("REPRO_TERRA_DISABLE_PASSES")


# -- directives -------------------------------------------------------------------

@dataclass(frozen=True)
class Directive:
    """Base class: one schedule decision.  Frozen (hashable) so
    schedules can key caches and tuner tables.  Single-axis directives
    carry an ``axis`` field; :class:`Tile` carries ``axes`` — use
    :func:`axes_of` for the uniform view."""

    def _bad(self, message: str) -> ScheduleError:
        return ScheduleError(f"{self}: {message}")


def _check_axis(d: Directive, axis) -> None:
    if not isinstance(axis, str) or not axis:
        raise ScheduleError(f"{type(d).__name__}: axis must be a non-empty "
                            f"loop-variable name, got {axis!r}")


@dataclass(frozen=True)
class Block(Directive):
    """Split ``axis`` into chunks of ``size`` iterations.

    Order-preserving (the chunks cover the range in order, the remainder
    chunk is clamped), so blocking never changes results — it only
    changes locality.  The outer chunk loop is named ``<axis>_o``."""

    axis: str
    size: int

    def __post_init__(self):
        _check_axis(self, self.axis)
        if not isinstance(self.size, int) or self.size < 2:
            raise self._bad(f"block size must be an int >= 2, "
                            f"got {self.size!r}")

    def __str__(self) -> str:
        return f"Block({self.axis!r}, {self.size})"


@dataclass(frozen=True)
class Tile(Directive):
    """Jointly block a *perfectly nested* run of axes and interchange so
    all chunk loops run outside all intra-tile loops (classic loop
    tiling).  ``axes`` must name a chain where each loop's body is
    exactly the next loop; anything between them is a compile-time
    :class:`ScheduleError`.  Reorders iterations across axes — legal for
    the dependence-free nests it accepts."""

    axes: tuple
    sizes: tuple

    def __post_init__(self):
        object.__setattr__(self, "axes", tuple(self.axes))
        object.__setattr__(self, "sizes", tuple(self.sizes))
        if len(self.axes) < 2:
            raise self._bad("needs at least two axes (use Block for one)")
        if len(self.axes) != len(self.sizes):
            raise self._bad(f"{len(self.axes)} axes but "
                            f"{len(self.sizes)} sizes")
        for a in self.axes:
            _check_axis(self, a)
        if len(set(self.axes)) != len(self.axes):
            raise self._bad("axes must be distinct")
        for s in self.sizes:
            if not isinstance(s, int) or s < 2:
                raise self._bad(f"tile sizes must be ints >= 2, got {s!r}")

    def __str__(self) -> str:
        return f"Tile({list(self.axes)}, {list(self.sizes)})"


@dataclass(frozen=True)
class Unroll(Directive):
    """Unroll ``axis`` by ``factor``: the main loop steps by ``factor``
    with the body repeated (index offset per copy, locals freshened), a
    remainder loop runs the leftover iterations.  Execution order is
    exactly the original loop's, so unrolling never changes results."""

    axis: str
    factor: int

    def __post_init__(self):
        _check_axis(self, self.axis)
        if not isinstance(self.factor, int) or self.factor < 2:
            raise self._bad(f"unroll factor must be an int >= 2, "
                            f"got {self.factor!r}")

    def __str__(self) -> str:
        return f"Unroll({self.axis!r}, {self.factor})"


@dataclass(frozen=True)
class Vectorize(Directive):
    """Vectorize ``axis`` with ``width`` lanes (0 = derive from
    ``REPRO_TERRA_VEC_BYTES``).  Unlike pipeline level 2 — which silently
    bails on unsupported loops — an explicit Vectorize that cannot be
    honored is a :class:`ScheduleError` naming the reason: the axis must
    be innermost (after any Tile/Block) with unit stride and a
    lane-exact body (see passes/vectorize.py)."""

    axis: str
    width: int = 0

    def __post_init__(self):
        _check_axis(self, self.axis)
        w = self.width
        if not isinstance(w, int) or w < 0 or w == 1 \
                or (w > 1 and (w & (w - 1)) != 0):
            raise self._bad(f"width must be 0 (auto) or a power of two "
                            f">= 2, got {w!r}")

    def __str__(self) -> str:
        return f"Vectorize({self.axis!r}, {self.width})"


@dataclass(frozen=True)
class Parallel(Directive):
    """Dispatch ``axis`` across worker threads via the kernel's
    ``chunked`` twin (:mod:`repro.parallel`).  The axis must be the kernel's
    final top-level loop with host-evaluable bounds (constants or whole
    parameters); each worker runs a contiguous ``[lo, hi)`` slice, so
    results are bit-identical to serial for independent iterations.
    ``nthreads=0`` defers to ``REPRO_TERRA_THREADS`` / the core count."""

    axis: str
    nthreads: int = 0

    def __post_init__(self):
        _check_axis(self, self.axis)
        if not isinstance(self.nthreads, int) or self.nthreads < 0:
            raise self._bad(f"nthreads must be an int >= 0, "
                            f"got {self.nthreads!r}")

    def __str__(self) -> str:
        return f"Parallel({self.axis!r}, nthreads={self.nthreads})"


@dataclass(frozen=True)
class Pack(Directive):
    """Copy ``operand`` (a pointer parameter, by name) into contiguous
    scratch — per panel (``layout="panel"``) or per tile
    (``layout="tile"``) — before the compute loops touch it.

    Packing changes how the kernel is *staged*, not how one loop is
    rewritten, so it is consumed by schedule-aware builders
    (``autotune.make_gemm_from_schedule``, ``apps.dequant``); a Pack
    reaching the generic lowering pass is a :class:`ScheduleError`
    (docs/SCHEDULES.md explains the split)."""

    operand: str
    layout: str = "panel"

    LAYOUTS = ("panel", "tile")

    def __post_init__(self):
        if not isinstance(self.operand, str) or not self.operand:
            raise self._bad(f"operand must be a parameter name, "
                            f"got {self.operand!r}")
        if self.layout not in self.LAYOUTS:
            raise self._bad(f"layout must be one of {self.LAYOUTS}, "
                            f"got {self.layout!r}")

    def __str__(self) -> str:
        return f"Pack({self.operand!r}, {self.layout!r})"


def axes_of(d: Directive) -> tuple[str, ...]:
    """The loop axes a directive touches, by loop-variable name."""
    if isinstance(d, Tile):
        return d.axes
    axis = getattr(d, "axis", None)
    return (axis,) if axis else ()


# -- the schedule -----------------------------------------------------------------

class Schedule:
    """An immutable, hashable composition of directives.

    Schedule-internal conflicts (two Blocks on one axis, Vectorize plus
    Unroll on one axis, ...) are rejected at construction; conflicts
    that depend on the loop nest (axis not found, non-innermost
    Vectorize, imperfect Tile nest) are rejected when the schedule is
    lowered at compile time.  ``strict=False`` turns nest-dependent
    rejections into silent skips — the fuzz harness uses it to apply a
    generic schedule to arbitrary generated programs.
    """

    __slots__ = ("directives", "strict")

    def __init__(self, directives: Sequence[Directive] = (),
                 strict: bool = True):
        directives = tuple(directives)
        for d in directives:
            if not isinstance(d, Directive):
                raise ScheduleError(
                    f"Schedule items must be directives "
                    f"(Block/Tile/Unroll/Pack/Parallel/Vectorize), "
                    f"got {d!r}")
        self._validate(directives)
        object.__setattr__(self, "directives", directives)
        object.__setattr__(self, "strict", bool(strict))

    def __setattr__(self, name, value):
        raise AttributeError("Schedule is immutable")

    @staticmethod
    def _validate(directives: tuple) -> None:
        splitters: dict[str, Directive] = {}   # axis -> Block/Tile
        per_kind: dict[tuple, Directive] = {}  # (kind, axis) -> directive
        packs: dict[str, Directive] = {}
        parallel_seen: Optional[Directive] = None
        for d in directives:
            if isinstance(d, (Block, Tile)):
                for axis in axes_of(d):
                    other = splitters.get(axis)
                    if other is not None:
                        raise ScheduleError(
                            f"{d}: axis {axis!r} is already split by "
                            f"{other}")
                    splitters[axis] = d
                continue
            if isinstance(d, Pack):
                other = packs.get(d.operand)
                if other is not None:
                    raise ScheduleError(
                        f"{d}: operand {d.operand!r} is already packed "
                        f"by {other}")
                packs[d.operand] = d
                continue
            if isinstance(d, Parallel):
                if parallel_seen is not None:
                    raise ScheduleError(
                        f"{d}: only one Parallel directive per schedule "
                        f"(already have {parallel_seen})")
                parallel_seen = d
            key = (type(d).__name__, d.axis)
            other = per_kind.get(key)
            if other is not None:
                raise ScheduleError(f"{d}: duplicate of {other}")
            per_kind[key] = d
        # cross-kind conflicts on one axis
        for (kind, axis), d in per_kind.items():
            if kind == "Vectorize" and ("Unroll", axis) in per_kind:
                raise ScheduleError(
                    f"{d}: cannot both Vectorize and Unroll axis "
                    f"{axis!r} — vectorization already widens the body "
                    f"(unroll a different axis)")
            if kind == "Parallel":
                for other_kind in ("Vectorize", "Unroll"):
                    other = per_kind.get((other_kind, axis))
                    if other is not None:
                        raise ScheduleError(
                            f"{d}: axis {axis!r} is the thread-dispatch "
                            f"axis; {other} would change the per-chunk "
                            f"loop structure the chunked twin clamps")

    # -- views ---------------------------------------------------------------

    def __iter__(self) -> Iterator[Directive]:
        return iter(self.directives)

    def __len__(self) -> int:
        return len(self.directives)

    def __bool__(self) -> bool:
        return bool(self.directives)

    def __eq__(self, other) -> bool:
        return isinstance(other, Schedule) \
            and self.directives == other.directives \
            and self.strict == other.strict

    def __hash__(self) -> int:
        return hash((self.directives, self.strict))

    def __repr__(self) -> str:
        inner = ", ".join(str(d) for d in self.directives)
        strict = "" if self.strict else ", strict=False"
        return f"Schedule([{inner}]{strict})"

    def key(self) -> str:
        """A stable human-readable identity — tuner tables and benchmark
        labels key on this."""
        if not self.directives:
            return "naive"
        return "|".join(str(d) for d in self.directives)

    def of_kind(self, kind: type) -> list:
        return [d for d in self.directives if isinstance(d, kind)]

    @property
    def packs(self) -> list:
        return self.of_kind(Pack)

    @property
    def parallel(self) -> Optional[Parallel]:
        found = self.of_kind(Parallel)
        return found[0] if found else None

    def split_size(self, axis: str) -> int:
        """The Block/Tile chunk size on ``axis`` (1 when unsplit) — the
        dispatch grain for a Parallel axis."""
        for d in self.directives:
            if isinstance(d, Block) and d.axis == axis:
                return d.size
            if isinstance(d, Tile) and axis in d.axes:
                return d.sizes[d.axes.index(axis)]
        return 1

    def partition(self, pred) -> tuple["Schedule", "Schedule"]:
        """Split into (matching, rest) schedules; schedule-aware builders
        use this to consume Pack (and the axes they restage) and hand
        the remainder to the generic lowering."""
        hit = [d for d in self.directives if pred(d)]
        rest = [d for d in self.directives if not pred(d)]
        return (Schedule(hit, strict=self.strict),
                Schedule(rest, strict=self.strict))

    def without_packs(self) -> "Schedule":
        return self.partition(lambda d: isinstance(d, Pack))[1]


# -- application ------------------------------------------------------------------

class ScheduledKernel:
    """A scheduled Terra kernel: callable like the function itself, with
    ``Parallel`` dispatch handled host-side.

    Non-``Parallel`` schedules are entirely an IR property, so calls
    simply forward to the function (any backend, any tier).  With a
    ``Parallel(axis)`` directive the call extracts the axis bounds from
    the typed IR (validated by the schedule lowering) and drives the
    function's ``chunked`` twin — which carries the rest of the schedule
    — through :func:`repro.parallel.parallel_for`.  Everything else
    (``compile``, ``get_c_source``, ``name``, ...) delegates to the
    function.
    """

    def __init__(self, fn, schedule: Schedule):
        self.fn = fn
        self.schedule = schedule

    def __getattr__(self, name):
        return getattr(self.fn, name)

    def __repr__(self) -> str:
        return f"<scheduled {self.fn.name}: {self.schedule.key()}>"

    def __call__(self, *args):
        par = self.schedule.parallel
        if par is None or _lowering_disabled():
            return self.fn(*args)
        from ..parallel import parallel_for
        lo, hi = self._axis_bounds(args)
        return parallel_for(self.fn.chunked, lo, hi, *args,
                            nthreads=par.nthreads,
                            grain=self.schedule.split_size(par.axis))

    def _axis_bounds(self, args) -> tuple[int, int]:
        """The Parallel axis' (start, limit) for this call — recorded by
        the schedule lowering as (expr, expr) and evaluated against the
        actual arguments (constants or whole parameters only)."""
        from ..passes import PIPELINE_NONE, pipelined_body
        self.fn.ensure_typechecked()
        typed = self.fn.typed
        pipelined_body(typed, PIPELINE_NONE)  # lowers it if nothing has
        bounds = getattr(typed, "_sched_parallel_bounds", None)
        if bounds is None:
            raise ScheduleError(
                f"{self.schedule.parallel}: no dispatch bounds recorded "
                f"for {self.fn.name!r} (was the schedule disabled?)")
        params = {sym: i for i, sym in enumerate(typed.param_symbols)}

        def ev(expr):
            from ..core import tast
            e = expr
            while isinstance(e, tast.TCast):
                e = e.expr
            if isinstance(e, tast.TConst):
                return int(e.value)
            if isinstance(e, tast.TVar) and e.symbol in params:
                return int(args[params[e.symbol]])
            raise ScheduleError(
                f"{self.schedule.parallel}: cannot evaluate loop bound "
                f"for host-side dispatch")

        return ev(bounds[0]), ev(bounds[1])


def apply(fn, schedule) -> ScheduledKernel:
    """Attach ``schedule`` to Terra function ``fn``; returns the
    :class:`ScheduledKernel` wrapper.

    Must run before the function is typechecked or compiled: the
    schedule is part of the compiled artifact's identity (a scheduled
    kernel emits different C, hence a different buildd cache entry).
    Accepts a bare directive as shorthand for a one-entry schedule.
    """
    if isinstance(schedule, Directive):
        schedule = Schedule([schedule])
    if not isinstance(schedule, Schedule):
        raise ScheduleError(
            f"apply() needs a Schedule or a directive, got {schedule!r}")
    if not getattr(fn, "is_terra_function", False):
        raise ScheduleError(
            f"apply() schedules Terra functions, got {fn!r}")
    if getattr(fn, "is_external", False):
        raise ScheduleError(
            f"apply(): {fn.name!r} is external — there is no staged loop "
            f"nest to schedule")
    if getattr(fn, "typed", None) is not None or fn.dispatcher.handles:
        raise ScheduleError(
            f"apply(): {fn.name!r} is already typechecked; schedules "
            f"must be attached before the first compile or call")
    if getattr(fn, "schedule", None) is not None:
        raise ScheduleError(
            f"apply(): {fn.name!r} already has a schedule "
            f"({fn.schedule.key()}); schedules are immutable per function")
    if schedule.strict and schedule.packs:
        raise ScheduleError(
            f"{schedule.packs[0]}: Pack is consumed by schedule-aware "
            f"builders (make_gemm_from_schedule, apps.dequant), not the "
            f"generic lowering — see docs/SCHEDULES.md")
    fn.schedule = schedule
    return ScheduledKernel(fn, schedule)


def fuzz_schedule() -> Schedule:
    """The deterministic lenient schedule the fuzz harness applies to
    generated programs: block every loop the generators name (``i`` in
    array kernels, ``i1``/``i2``/... in scalar programs) by a
    deliberately non-dividing size, exercising the remainder/clamp paths
    against the unscheduled configs.  Lenient resolution applies a
    directive to every matching loop and skips loops the lowering
    cannot handle — semantics are untouched either way."""
    return Schedule([Block("i", 3), Block("i1", 3),
                     Block("i2", 3), Block("i3", 3)], strict=False)
