"""Lowering of :class:`~repro.schedule.Schedule` directives onto typed IR.

Called by the ``schedule`` pass (:mod:`repro.passes.tileschedule`) once
per function, before any pipeline level.  The rewrites reuse the
auto-vectorizer's machinery where it exists:

* **Block/Tile** use the vectorizer's hoisted-bounds idiom — bounds are
  evaluated once into locals, the intra-chunk limit is clamped with a
  conditional (handles non-dividing sizes with no separate epilogue),
  and iteration *order* per axis is preserved exactly;
* **Unroll** uses the vectorizer's trip-count/epilogue pattern — a
  multiple-of-F main loop with F offset body copies, then a remainder
  loop running the original body;
* **Vectorize** calls straight into ``passes/vectorize.py`` with a
  forced lane width; a bailout there becomes a
  :class:`~repro.errors.ScheduleError` naming the directive (an
  explicit request is honored or rejected, never silently dropped);
* **Parallel** is validated here (final top-level loop, host-evaluable
  bounds) and recorded on the TypedFunction for
  :class:`~repro.schedule.ScheduledKernel` to dispatch through the
  function's ``chunked`` twin.

Every loop that still *contains the original body* (the intra-chunk
loop, the unroll remainder) is tagged with a shared ``_sched_origin``
token, which the vectorizer's bailout accounting uses to count one
``vec.bailouts.<reason>`` per *original* loop rather than per generated
instance (metrics stay comparable across schedules).

Axis resolution is by loop-variable name over the whole body.  In
strict schedules an unknown or ambiguous axis is a ScheduleError; in
lenient schedules (``strict=False``, the fuzz harness) a directive
applies to every matching qualifying loop and silently skips the rest.
"""

from __future__ import annotations

from ..core import tast
from ..core import types as T
from ..core.symbols import Symbol
from ..errors import ScheduleError
from ..passes.analysis import expr_may_trap, has_side_effects
from . import Block, Parallel, Schedule, Tile, Unroll, Vectorize


def _metric(name: str, n: int = 1) -> None:
    from ..trace.metrics import registry
    registry().add(name, n)


# -- tree navigation --------------------------------------------------------------

def _child_blocks(stat):
    if isinstance(stat, tast.TIf):
        for _, body in stat.branches:
            yield body
        if stat.orelse is not None:
            yield stat.orelse
        return
    for f in stat._fields:
        child = getattr(stat, f, None)
        if isinstance(child, tast.TBlock):
            yield child


def _iter_slots(block):
    """Yield ``(block, index, statement)`` for every statement position
    in the tree (statement positions only — a loop buried inside a
    ``TLetIn`` expression is not replaceable)."""
    for idx, stat in enumerate(list(block.statements)):
        yield block, idx, stat
        for child in _child_blocks(stat):
            yield from _iter_slots(child)


def _loops_named(body, axis: str) -> list:
    return [n for n in tast.walk(body)
            if isinstance(n, tast.TForNum)
            and (n.symbol.displayname or "") == axis]


def _slot_of(body, loop):
    for block, idx, stat in _iter_slots(body):
        if stat is loop:
            return block, idx
    return None


def _resolve_axis(typed, axis: str, directive):
    """The unique TForNum for ``axis`` plus its statement slot, or a
    ScheduleError naming the directive (strict mode)."""
    loops = _loops_named(typed.body, axis)
    if not loops:
        raise ScheduleError(
            f"{directive}: axis {axis!r} not found in {typed.name!r} "
            f"(axes are loop-variable names)")
    if len(loops) > 1:
        raise ScheduleError(
            f"{directive}: axis {axis!r} is ambiguous in {typed.name!r} "
            f"({len(loops)} loops use that name)")
    slot = _slot_of(typed.body, loops[0])
    if slot is None:
        raise ScheduleError(
            f"{directive}: axis {axis!r} in {typed.name!r} is inside an "
            f"expression; only statement-position loops can be scheduled")
    return loops[0], slot


# -- qualification ----------------------------------------------------------------

def _has_reachable_break(block) -> bool:
    """A ``break`` that would leave *this* loop (not a nested one)."""
    for stat in block.statements:
        if isinstance(stat, tast.TBreak):
            return True
        if isinstance(stat, (tast.TForNum, tast.TWhile, tast.TRepeat)):
            continue  # a nested loop absorbs its own breaks
        if any(_has_reachable_break(child) for child in _child_blocks(stat)):
            return True
    return False


def _qualify(typed, loop, directive) -> None:
    """Common legality for Block/Tile/Unroll: raise ScheduleError (the
    lenient path catches it) when the rewrite cannot be proven exact."""
    step = loop.step
    if step is not None and not (isinstance(step, tast.TConst)
                                 and step.value == 1):
        raise ScheduleError(
            f"{directive}: axis {loop.symbol.displayname!r} has a "
            f"non-unit step; only unit-stride axes can be split")
    vt = loop.var_type
    if not (isinstance(vt, T.PrimitiveType) and vt.isintegral()
            and not vt.islogical()):
        raise ScheduleError(
            f"{directive}: axis {loop.symbol.displayname!r} has "
            f"non-integral loop-variable type {vt}")
    for bound in (loop.start, loop.limit):
        if has_side_effects(bound) or expr_may_trap(bound):
            raise ScheduleError(
                f"{directive}: axis {loop.symbol.displayname!r} has "
                f"impure or trapping bounds; they must be hoistable")
    if _has_reachable_break(loop.body):
        raise ScheduleError(
            f"{directive}: axis {loop.symbol.displayname!r} body "
            f"contains a break; an early exit would skip the remainder "
            f"iterations")
    for node in tast.walk(loop.body):
        if isinstance(node, tast.TAssign) and any(
                isinstance(lhs, tast.TVar) and lhs.symbol is loop.symbol
                for lhs in node.lhs):
            raise ScheduleError(
                f"{directive}: axis {loop.symbol.displayname!r} loop "
                f"variable is assigned in the body")


def _origin_of(loop):
    """The loop's identity token for bailout accounting — created once
    and shared by every generated loop that still runs its body."""
    origin = getattr(loop, "_sched_origin", None)
    if origin is None:
        origin = object()
    return origin


# -- statement splicing -----------------------------------------------------------

def _splice(typed, slot, statements: list) -> None:
    """Replace the statement at ``slot`` with ``statements``.

    At the *final top-level* position the statements are spliced inline
    (no ``do`` wrapper), so a loop that was last stays a top-level
    statement; everywhere else they are wrapped in a ``do`` block to keep
    scoping tight."""
    block, idx = slot
    top_final = block is typed.body and idx == len(block.statements) - 1
    if top_final:
        block.statements[idx:idx + 1] = statements
    else:
        block.statements[idx] = tast.TDoStat(tast.TBlock(statements))


# -- Block ------------------------------------------------------------------------

def _build_block(loop, size: int, origin) -> list:
    """``[bounds decls, outer chunk loop]`` for one Block rewrite."""
    vt = loop.var_type
    axis = loop.symbol.displayname or "i"

    def var(sym):
        return tast.TVar(sym, vt)

    def const(v):
        return tast.TConst(v, vt)

    bs = Symbol(vt, f"{axis}_bs")
    bl = Symbol(vt, f"{axis}_bl")
    io = Symbol(vt, f"{axis}_o")
    hi = Symbol(vt, f"{axis}_hi")
    limit_decl = tast.TVarDecl(
        [hi], [vt], [tast.TBinOp("+", var(io), const(size), vt)])
    clamp = tast.TIf(
        [(tast.TBinOp(">", var(hi), var(bl), T.bool_),
          tast.TBlock([tast.TAssign([var(hi)], [var(bl)])]))], None)
    inner = tast.TForNum(loop.symbol, vt, var(io), var(hi), None,
                         loop.body, step_sign=1, location=loop.location)
    inner._sched_origin = origin
    outer = tast.TForNum(io, vt, var(bs), var(bl), const(size),
                         tast.TBlock([limit_decl, clamp, inner]),
                         step_sign=1, location=loop.location)
    outer._sched_origin = origin
    outer._sched_outer = True
    return [tast.TVarDecl([bs], [vt], [loop.start]),
            tast.TVarDecl([bl], [vt], [loop.limit]),
            outer]


def _lower_block(typed, d: Block, lenient: bool) -> bool:
    if lenient:
        changed = False
        matches = _loops_named(typed.body, d.axis)
        if not matches:
            _metric("sched.skipped")
            return False
        for loop in matches:
            slot = _slot_of(typed.body, loop)
            if slot is None:
                continue
            try:
                _qualify(typed, loop, d)
            except ScheduleError:
                _metric("sched.skipped")
                continue
            _splice(typed, slot, _build_block(loop, d.size, _origin_of(loop)))
            _metric("sched.blocked")
            changed = True
        return changed
    loop, slot = _resolve_axis(typed, d.axis, d)
    _qualify(typed, loop, d)
    _splice(typed, slot, _build_block(loop, d.size, _origin_of(loop)))
    _metric("sched.blocked")
    return True


# -- Tile -------------------------------------------------------------------------

def _lower_tile(typed, d: Tile) -> bool:
    loops = []
    for axis in d.axes:
        loop, slot = _resolve_axis(typed, axis, d)
        loops.append(loop)
    slot = _slot_of(typed.body, loops[0])
    # perfect nesting, in the listed order
    for outer, inner, axis in zip(loops, loops[1:], d.axes[1:]):
        stmts = outer.body.statements
        if len(stmts) != 1 or stmts[0] is not inner:
            raise ScheduleError(
                f"{d}: axes must form a perfect nest — the body of "
                f"{outer.symbol.displayname!r} is not exactly the "
                f"{axis!r} loop")
    outer_syms: set = set()
    for loop in loops:
        _qualify(typed, loop, d)
        for bound in (loop.start, loop.limit):
            for node in tast.walk(bound):
                if isinstance(node, tast.TVar) and node.symbol in outer_syms:
                    raise ScheduleError(
                        f"{d}: bounds of axis "
                        f"{loop.symbol.displayname!r} depend on an outer "
                        f"tiled axis — the nest is not rectangular")
        outer_syms.add(loop.symbol)

    decls: list = []
    chunk_syms: list = []     # (io, bs, bl, hi) per axis
    for loop, size in zip(loops, d.sizes):
        vt = loop.var_type
        axis = loop.symbol.displayname or "i"
        bs = Symbol(vt, f"{axis}_bs")
        bl = Symbol(vt, f"{axis}_bl")
        io = Symbol(vt, f"{axis}_o")
        hi = Symbol(vt, f"{axis}_hi")
        decls.append(tast.TVarDecl([bs], [vt], [loop.start]))
        decls.append(tast.TVarDecl([bl], [vt], [loop.limit]))
        chunk_syms.append((io, bs, bl, hi))

    # innermost outward: intra-tile loops around the original body
    inner_stmt = loops[-1].body
    for loop, (io, _, bl, hi) in zip(reversed(loops), reversed(chunk_syms)):
        vt = loop.var_type
        body = inner_stmt if isinstance(inner_stmt, tast.TBlock) \
            else tast.TBlock([inner_stmt])
        intra = tast.TForNum(loop.symbol, vt, tast.TVar(io, vt),
                             tast.TVar(hi, vt), None, body,
                             step_sign=1, location=loop.location)
        intra._sched_origin = _origin_of(loop)
        inner_stmt = intra

    # the clamped intra-tile limits, computed inside the innermost chunk loop
    limit_stmts: list = []
    for loop, (io, _, bl, hi) in zip(loops, chunk_syms):
        vt = loop.var_type
        size = d.sizes[loops.index(loop)]
        limit_stmts.append(tast.TVarDecl(
            [hi], [vt],
            [tast.TBinOp("+", tast.TVar(io, vt),
                         tast.TConst(size, vt), vt)]))
        limit_stmts.append(tast.TIf(
            [(tast.TBinOp(">", tast.TVar(hi, vt), tast.TVar(bl, vt),
                          T.bool_),
              tast.TBlock([tast.TAssign([tast.TVar(hi, vt)],
                                        [tast.TVar(bl, vt)])]))], None))

    nest = tast.TBlock(limit_stmts + [inner_stmt])
    for loop, size, (io, bs, bl, hi) in zip(reversed(loops),
                                            reversed(d.sizes),
                                            reversed(chunk_syms)):
        vt = loop.var_type
        chunk = tast.TForNum(io, vt, tast.TVar(bs, vt), tast.TVar(bl, vt),
                             tast.TConst(size, vt), nest,
                             step_sign=1, location=loop.location)
        chunk._sched_outer = True
        nest = tast.TBlock([chunk])
    _splice(typed, slot, decls + list(nest.statements))
    _metric("sched.tiled")
    return True


# -- Unroll -----------------------------------------------------------------------

def _replace_vars(node, repl) -> None:
    """In-place: substitute TVar nodes per ``repl(var) -> expr | None``."""

    def sub(value):
        if isinstance(value, tast.TVar):
            new = repl(value)
            if new is not None:
                return new
        if isinstance(value, tast.TNode):
            _replace_vars(value, repl)
        return value

    for f in node._fields:
        value = getattr(node, f, None)
        if isinstance(value, tast.TNode):
            setattr(node, f, sub(value))
        elif isinstance(value, list):
            for i, item in enumerate(value):
                if isinstance(item, tast.TNode):
                    value[i] = sub(item)
                elif isinstance(item, tuple):  # TIf branches
                    value[i] = tuple(sub(x) if isinstance(x, tast.TNode)
                                     else x for x in item)


def _offset_body_copy(loop, k: int):
    """A clone of the loop body for unroll copy ``k``: the loop variable
    reads become ``var + k`` and every binder declared inside the copy is
    freshened (two copies must not share local symbols)."""
    body = tast.clone(loop.body)
    vt = loop.var_type
    fresh: dict = {}
    for node in tast.walk(body):
        if isinstance(node, tast.TVarDecl):
            node.symbols = [
                fresh.setdefault(
                    s, Symbol(ty, f"{s.displayname or 'v'}_u{k}"))
                for s, ty in zip(node.symbols, node.types)]
        elif isinstance(node, tast.TForNum):
            node.symbol = fresh.setdefault(
                node.symbol,
                Symbol(node.var_type,
                       f"{node.symbol.displayname or 'i'}_u{k}"))

    def repl(var):
        if var.symbol is loop.symbol:
            if k == 0:
                return None
            return tast.TBinOp("+", tast.TVar(loop.symbol, vt),
                               tast.TConst(k, vt), vt)
        twin = fresh.get(var.symbol)
        if twin is not None:
            return tast.TVar(twin, var.type)
        return None

    _replace_vars(body, repl)
    return body


def _lower_unroll(typed, d: Unroll, lenient: bool) -> bool:
    try:
        loop, slot = _resolve_axis(typed, d.axis, d)
        _qualify(typed, loop, d)
    except ScheduleError:
        if lenient:
            _metric("sched.skipped")
            return False
        raise
    F = d.factor
    vt = loop.var_type
    axis = loop.symbol.displayname or "i"
    origin = _origin_of(loop)

    def var(sym):
        return tast.TVar(sym, vt)

    def const(v):
        return tast.TConst(v, vt)

    us = Symbol(vt, f"{axis}_us")
    ul = Symbol(vt, f"{axis}_ul")
    ue = Symbol(vt, f"{axis}_ue")
    # ue = us; if us < ul then ue = ul - ((ul - us) % F) end   — the
    # vectorizer's multiple-of-W prefix, for arbitrary (non-power-of-2) F
    prefix = tast.TAssign(
        [var(ue)],
        [tast.TBinOp(
            "-", var(ul),
            tast.TBinOp("%",
                        tast.TBinOp("-", var(ul), var(us), vt),
                        const(F), vt),
            vt)])
    guard = tast.TIf(
        [(tast.TBinOp("<", var(us), var(ul), T.bool_),
          tast.TBlock([prefix]))], None)

    main_stmts: list = []
    for k in range(F):
        main_stmts.extend(_offset_body_copy(loop, k).statements)
    main = tast.TForNum(loop.symbol, vt, var(us), var(ue), const(F),
                        tast.TBlock(main_stmts), step_sign=1,
                        location=loop.location)
    main._sched_origin = origin
    remainder = tast.TForNum(loop.symbol, vt, var(ue), var(ul), None,
                             loop.body, step_sign=1,
                             location=loop.location)
    remainder._sched_origin = origin
    _splice(typed, slot, [
        tast.TVarDecl([us], [vt], [loop.start]),
        tast.TVarDecl([ul], [vt], [loop.limit]),
        tast.TVarDecl([ue], [vt], [var(us)]),
        guard,
        main,
        remainder,
    ])
    _metric("sched.unrolled")
    return True


# -- Vectorize --------------------------------------------------------------------

def _lower_vectorize(typed, d: Vectorize, lenient: bool) -> bool:
    from ..passes import vectorize as vz
    try:
        loop, slot = _resolve_axis(typed, d.axis, d)
    except ScheduleError:
        if lenient:
            _metric("sched.skipped")
            return False
        raise
    if vz._contains_loop(loop.body):
        err = ScheduleError(
            f"{d}: axis {d.axis!r} is not innermost — vectorization "
            f"needs a flat body (Tile/Block the outer axes instead)")
        if lenient:
            _metric("sched.skipped")
            return False
        raise err
    addr_taken = vz._addr_taken_symbols(typed.body)
    try:
        replacement = vz.vectorize_loop(loop, addr_taken, d.width)
    except vz._Bail as bail:
        if lenient:
            _metric("sched.skipped")
            return False
        raise ScheduleError(
            f"{d}: cannot vectorize axis {d.axis!r} "
            f"(vectorizer bailed: {bail.reason})")
    block, idx = slot
    block.statements[idx] = replacement
    _metric("sched.vectorized")
    return True


# -- Parallel ---------------------------------------------------------------------

def _validate_parallel(typed, d: Parallel) -> None:
    """Check the Parallel axis *before* other rewrites and record its
    dispatch bounds."""
    loop, slot = _resolve_axis(typed, d.axis, d)
    block, idx = slot
    if block is not typed.body or idx != len(block.statements) - 1:
        raise ScheduleError(
            f"{d}: axis {d.axis!r} must be the final top-level loop of "
            f"{typed.name!r} — that is the loop the chunked twin "
            f"clamps to [lo, hi)")
    if typed.type.returns:
        raise ScheduleError(
            f"{d}: {typed.name!r} returns {typed.type.returntype}; "
            f"parallel kernels must return nothing (results go through "
            f"out-pointers)")
    _qualify(typed, loop, d)
    params = set(typed.param_symbols)

    def host_evaluable(expr) -> bool:
        e = expr
        while isinstance(e, tast.TCast):
            e = e.expr
        return isinstance(e, tast.TConst) or (
            isinstance(e, tast.TVar) and e.symbol in params)

    for bound in (loop.start, loop.limit):
        if not host_evaluable(bound):
            raise ScheduleError(
                f"{d}: axis {d.axis!r} bounds must be constants or "
                f"whole parameters so the host can split [lo, hi) "
                f"across workers")
    typed._sched_parallel_bounds = (tast.clone(loop.start),
                                    tast.clone(loop.limit))


# -- entry ------------------------------------------------------------------------

def lower_schedule(typed, schedule: Schedule) -> bool:
    """Apply every directive of ``schedule`` to ``typed`` in canonical
    phase order — Parallel validation, Tile, Block, Unroll, Vectorize —
    independent of construction order.  Returns True when the tree
    changed."""
    lenient = not schedule.strict
    changed = False
    packs = schedule.packs
    if packs and schedule.strict:
        raise ScheduleError(
            f"{packs[0]}: Pack reached the generic lowering — it is "
            f"consumed by schedule-aware builders (docs/SCHEDULES.md)")
    par = schedule.parallel
    if par is not None:
        try:
            _validate_parallel(typed, par)
        except ScheduleError:
            if not lenient:
                raise
            _metric("sched.skipped")
    for d in schedule.of_kind(Tile):
        try:
            changed = _lower_tile(typed, d) or changed
        except ScheduleError:
            if not lenient:
                raise
            _metric("sched.skipped")
    for d in schedule.of_kind(Block):
        changed = _lower_block(typed, d, lenient) or changed
    for d in schedule.of_kind(Unroll):
        changed = _lower_unroll(typed, d, lenient) or changed
    for d in schedule.of_kind(Vectorize):
        changed = _lower_vectorize(typed, d, lenient) or changed
    if changed:
        _metric("sched.applied")
    return changed
