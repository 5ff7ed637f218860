"""Auto-vectorization of innermost countable loops.

Terra's thesis is that staged kernels reach hand-tuned performance; until
now SIMD only appeared when the user (or an Orion schedule) explicitly
asked for vector types.  This pass closes that gap at the IR level:
qualifying innermost ``for`` loops are rewritten into a *guarded* vector
loop over ``vector(T, W)`` values plus a scalar epilogue, so every
frontend and every execution path (serve, tiered dispatch, plain calls)
gets SIMD with zero schedule annotations.

The rewrite of ``for i = start, limit do body end`` is::

    do
      var _s = start              -- bounds evaluated once, in source order
      var _l = limit
      var _n = _l - _s            -- trip count (wraps negative -> guarded)
      var _e = _s
      if (_s < _l) and (_n >= W) and <store/load ranges disjoint> then
        var _m = _n & ~(W-1)      -- multiple-of-W prefix
        _e = _s + _m
        [vector accumulators = identity]
        for i = _s, _e, W do <vector body> end
        [scalar accumulators merged lane by lane]
      end
      for i = _e, _l do body end  -- epilogue AND the guard-failed path
    end

Correctness rests on three facts checked here and enforced by the
differential fuzzer (``make fuzz-smoke``):

* **Lane-exact memory model.**  Every memory access in a vectorized body
  is ``p[i]`` at exactly the loop index through a pointer-typed local, so
  iteration ``i`` touches element ``i`` of each base and the vector loop
  touches exactly the addresses the scalar loop would have.  Distinct
  bases are runtime-checked for disjointness over ``[&p[_s], &p[_l])``;
  accesses through the *same* base need no check.
* **Trap-free bodies.**  Anything that can trap (integer div/mod, array
  indexing) or that the interpreter and C could order differently
  (calls, branches) is a bailout — :func:`repro.passes.analysis` is the
  single source of truth for trap/effect classification.
* **Exact reductions only.**  Integer ``+ * & | ^`` reductions are
  reassociable modulo 2^n, so splitting them across lanes is
  bit-exact; float reductions are NOT reassociable and always bail.

Environment knobs (see docs/ENVIRONMENT.md):

* ``REPRO_TERRA_PIPELINE=2`` / ``pipeline_override(2)`` — level 2 (this
  pass) only runs when requested explicitly.
* ``REPRO_TERRA_VEC_BYTES`` — vector register width in bytes (default
  64: on AVX-512 hardware gcc's own autovectorizer stops at 256-bit
  vectors for these kernels, so the explicit 512-bit width is where the
  measured win comes from; must be a power of two).  The lane count is
  ``REPRO_TERRA_VEC_BYTES // max-element-size``.

Observability: each vectorized loop counts ``vec.loops``; each rejected
loop counts ``vec.bailouts`` plus ``vec.bailouts.<reason>``; pass timing
appears as ``pass.vectorize`` like every pass (docs/OBSERVABILITY.md).
"""

from __future__ import annotations

from .. import config
from ..core import tast
from ..core import types as T
from ..core.symbols import Symbol
from .analysis import expr_may_trap, has_side_effects
from .manager import Pass, register_pass

#: reduction operators that are exact under reassociation mod 2^n,
#: mapped to their identity element (signed identity; unsigned wraps)
_REDUCTION_IDENTITY = {"+": 0, "*": 1, "&": -1, "|": 0, "^": 0}

#: elementwise binary operators a vector body may contain (float ``/``
#: is allowed — it cannot trap; integer ``/`` and any ``%`` bail)
_VECTOR_BINOPS = frozenset(["+", "-", "*", "&", "|", "^", "<<", ">>"])

#: float intrinsics with elementwise vector forms in both backends
_VECTOR_INTRINSICS = frozenset(["sqrt", "fabs", "floor", "ceil",
                                "fmin", "fmax"])


class _Bail(Exception):
    """Raised anywhere during analysis/construction to reject a loop."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


def _is_vec_scalar(ty) -> bool:
    """A type vector lanes can hold: primitive, arithmetic, not bool."""
    return isinstance(ty, T.PrimitiveType) and not ty.islogical() \
        and (ty.isintegral() or ty.isfloat())


def _value_preserving_int_cast(dst, src) -> bool:
    """True when every value of integral ``src`` maps to itself in
    integral ``dst`` — the only casts allowed around the loop index
    (a wrapping index cast breaks unit stride at the wrap point)."""
    if not (isinstance(dst, T.PrimitiveType) and dst.isintegral()
            and isinstance(src, T.PrimitiveType) and src.isintegral()
            and not dst.islogical() and not src.islogical()):
        return False
    if dst.signed == src.signed:
        return dst.bytes >= src.bytes
    return dst.signed and dst.bytes > src.bytes


def _addr_taken_symbols(block) -> set:
    """Every local whose address escapes anywhere in the function: a
    store through any pointer may alias it, so it can be neither an
    invariant broadcast nor a reduction accumulator nor a base."""
    taken: set = set()
    for node in tast.walk(block):
        if isinstance(node, tast.TAddressOf) \
                and isinstance(node.operand, tast.TVar):
            taken.add(node.operand.symbol)
    return taken


def _contains_loop(block) -> bool:
    return any(isinstance(n, (tast.TForNum, tast.TWhile, tast.TRepeat))
               for n in tast.walk(block))


def _count_bail(reason: str) -> None:
    from ..trace.metrics import registry
    registry().add("vec.bailouts")
    registry().add(f"vec.bailouts.{reason}")


class _LoopVectorizer:
    """One attempt at vectorizing one innermost ``TForNum``.

    Runs twice per loop: a *trial* build at ``width=2`` that validates
    every statement and records which scalar types actually become
    vectors, then (after the real lane count is derived from those
    types) the definitive build.  Construction never mutates the
    original body — the epilogue reuses it as-is.
    """

    def __init__(self, loop: tast.TForNum, width: int, addr_taken: set):
        self.loop = loop
        self.width = width
        self.addr_taken = addr_taken
        self.var_type = loop.var_type
        self.loop_sym = loop.symbol
        #: scalar types that became vector lanes (drives width choice)
        self.lane_types: set = set()
        #: loop-local scalar temp -> its vector twin Symbol
        self.vecmap: dict = {}
        #: pointer base Symbol -> (pointer type, element type, stored?)
        self.bases: dict = {}
        #: symbols assigned anywhere in the body (incl. decls + loop var)
        self.assigned: set = {loop.symbol}
        #: reduction accumulator Symbol -> (op, vector twin Symbol)
        self.reductions: dict = {}

    # -- structural qualification ------------------------------------------

    def qualify(self) -> None:
        loop = self.loop
        step = loop.step
        if step is not None and not (
                isinstance(step, tast.TConst) and step.value == 1):
            raise _Bail("step")
        if not (isinstance(self.var_type, T.PrimitiveType)
                and self.var_type.isintegral()
                and not self.var_type.islogical()):
            raise _Bail("loop-var-type")
        if self.loop_sym in self.addr_taken:
            raise _Bail("addr-taken")
        if has_side_effects(loop.start) or has_side_effects(loop.limit) \
                or expr_may_trap(loop.start) or expr_may_trap(loop.limit):
            # bounds are evaluated once either way, but a trapping bound
            # plus our extra _n/_e arithmetic is not worth reasoning about
            raise _Bail("bounds")
        for s in loop.body.statements:
            if isinstance(s, tast.TVarDecl):
                if len(s.symbols) != 1 or not _is_vec_scalar(s.types[0]):
                    raise _Bail("decl")
                self.assigned.add(s.symbols[0])
            elif isinstance(s, tast.TAssign):
                if len(s.lhs) != 1 or len(s.rhs) != 1:
                    raise _Bail("multi-assign")
                lhs = s.lhs[0]
                if isinstance(lhs, tast.TVar):
                    if lhs.symbol is self.loop_sym:
                        raise _Bail("loop-var-assigned")
                    self.assigned.add(lhs.symbol)
                elif not isinstance(lhs, tast.TIndex):
                    raise _Bail("store-shape")
            else:
                raise _Bail("statement")

    # -- the loop index ----------------------------------------------------

    def _is_loop_index(self, idx) -> bool:
        e = idx
        while isinstance(e, tast.TCast) and e.kind == "numeric" \
                and _value_preserving_int_cast(e.type, e.expr.type):
            e = e.expr
        return isinstance(e, tast.TVar) and e.symbol is self.loop_sym

    def _base_of(self, access: tast.TIndex, stored: bool):
        """Validate ``p[i]`` unit-stride access; record and return its
        base symbol and element type."""
        obj = access.obj
        if not (isinstance(obj, tast.TVar)
                and isinstance(obj.type, T.PointerType)):
            raise _Bail("base")
        elem = obj.type.pointee
        if not _is_vec_scalar(elem):
            raise _Bail("elem-type")
        if not self._is_loop_index(access.index):
            raise _Bail("stride")
        sym = obj.symbol
        if sym in self.addr_taken or sym in self.assigned:
            raise _Bail("base-mutable")
        ptr_ty, _, was_stored = self.bases.get(sym, (obj.type, elem, False))
        self.bases[sym] = (ptr_ty, elem, was_stored or stored)
        return sym, elem

    # -- expression vectorization ------------------------------------------

    def _vty(self, scalar) -> T.VectorType:
        self.lane_types.add(scalar)
        return T.VectorType(scalar, self.width)

    def vec(self, e: tast.TExpr) -> tast.TExpr:
        """A vector-typed expression computing ``e`` for lanes
        ``i .. i+W-1``; raises :class:`_Bail` on anything unsupported."""
        ty = e.type
        if isinstance(e, tast.TConst):
            if not _is_vec_scalar(ty):
                raise _Bail("const-type")
            vty = self._vty(ty)
            return tast.TConst([e.value] * self.width, vty)
        if isinstance(e, tast.TVar):
            sym = e.symbol
            if sym is self.loop_sym:
                vty = self._vty(self.var_type)
                broadcast = tast.TCast(
                    vty, tast.TVar(sym, self.var_type), "broadcast")
                iota = tast.TConst(list(range(self.width)), vty)
                return tast.TBinOp("+", broadcast, iota, vty)
            twin = self.vecmap.get(sym)
            if twin is not None:
                return tast.TVar(twin, twin.type)
            if sym in self.reductions:
                raise _Bail("reduction-use")
            if sym in self.assigned:
                raise _Bail("carried")
            if not _is_vec_scalar(ty):
                raise _Bail("scalar-type")
            if sym in self.addr_taken:
                raise _Bail("addr-taken")
            return tast.TCast(self._vty(ty), tast.TVar(sym, ty), "broadcast")
        if isinstance(e, tast.TIndex):
            sym, elem = self._base_of(e, stored=False)
            addr = tast.TAddressOf(tast.TIndex(
                tast.clone(e.obj), tast.clone(e.index), elem))
            return tast.TIntrinsic("vload", [addr], self._vty(elem))
        if isinstance(e, tast.TBinOp):
            if not _is_vec_scalar(ty):
                raise _Bail("binop-type")
            op = e.op
            if op == "/" and ty.isfloat():
                pass  # float division cannot trap (inf/nan semantics)
            elif op not in _VECTOR_BINOPS:
                raise _Bail("binop")
            elif op in ("&", "|", "^", "<<", ">>") and not ty.isintegral():
                raise _Bail("binop")
            return tast.TBinOp(op, self.vec(e.lhs), self.vec(e.rhs),
                               self._vty(ty))
        if isinstance(e, tast.TUnOp):
            if e.op != "-" and not (e.op == "not" and ty.isintegral()
                                    and not ty.islogical()):
                raise _Bail("unop")
            if not _is_vec_scalar(ty):
                raise _Bail("unop-type")
            return tast.TUnOp(e.op, self.vec(e.operand), self._vty(ty))
        if isinstance(e, tast.TCast):
            if e.kind != "numeric" or not _is_vec_scalar(ty) \
                    or not _is_vec_scalar(e.expr.type):
                raise _Bail("cast")
            return tast.TCast(self._vty(ty), self.vec(e.expr), "vector")
        if isinstance(e, tast.TIntrinsic):
            if e.name not in _VECTOR_INTRINSICS:
                raise _Bail("intrinsic")
            if not (isinstance(ty, T.PrimitiveType) and ty.isfloat()):
                raise _Bail("intrinsic-type")
            if any(a.type is not ty for a in e.args):
                raise _Bail("intrinsic-args")
            return tast.TIntrinsic(e.name, [self.vec(a) for a in e.args],
                                   self._vty(ty))
        raise _Bail("expr")

    # -- statements --------------------------------------------------------

    def _classify_reduction(self, lhs_sym, rhs):
        """``acc = acc op rest`` (or ``rest op acc``) with an integral,
        reassociable op and ``acc`` nowhere in ``rest`` — else None."""
        if not isinstance(rhs, tast.TBinOp) \
                or rhs.op not in _REDUCTION_IDENTITY:
            return None
        acc_ty = rhs.type
        if not (isinstance(acc_ty, T.PrimitiveType) and acc_ty.isintegral()
                and not acc_ty.islogical()):
            return None

        def uses(e):
            return any(isinstance(n, tast.TVar) and n.symbol is lhs_sym
                       for n in tast.walk(e))

        if isinstance(rhs.lhs, tast.TVar) and rhs.lhs.symbol is lhs_sym \
                and not uses(rhs.rhs):
            return rhs.op, rhs.rhs
        if isinstance(rhs.rhs, tast.TVar) and rhs.rhs.symbol is lhs_sym \
                and not uses(rhs.lhs):
            return rhs.op, rhs.lhs
        return None

    def _acc_uses_elsewhere(self, acc_sym, home_stat) -> int:
        """Occurrences of ``acc_sym`` in body statements other than its
        own reduction statement (any -> not a private accumulator)."""
        count = 0
        for s in self.loop.body.statements:
            if s is home_stat:
                continue
            for node in tast.walk(s):
                if isinstance(node, tast.TVar) and node.symbol is acc_sym:
                    count += 1
        return count

    def build_body(self) -> list:
        """The vector loop's statements (new nodes only)."""
        out: list = []
        locals_here = {s.symbols[0] for s in self.loop.body.statements
                       if isinstance(s, tast.TVarDecl)}
        for s in self.loop.body.statements:
            if isinstance(s, tast.TVarDecl):
                sym, ty = s.symbols[0], s.types[0]
                vty = self._vty(ty)
                twin = Symbol(vty, (sym.displayname or "t") + "v")
                self.vecmap[sym] = twin
                init = None if s.inits is None else [self.vec(s.inits[0])]
                out.append(tast.TVarDecl([twin], [vty], init))
                continue
            assert isinstance(s, tast.TAssign)
            lhs, rhs = s.lhs[0], s.rhs[0]
            if isinstance(lhs, tast.TIndex):
                sym, elem = self._base_of(lhs, stored=True)
                value = self.vec(rhs)
                addr = tast.TAddressOf(tast.TIndex(
                    tast.clone(lhs.obj), tast.clone(lhs.index), elem))
                out.append(tast.TExprStat(tast.TIntrinsic(
                    "vstore", [addr, value], T.unit)))
                continue
            sym = lhs.symbol
            if sym in self.vecmap:            # loop-local temp
                out.append(tast.TAssign(
                    [tast.TVar(self.vecmap[sym], self.vecmap[sym].type)],
                    [self.vec(rhs)]))
                continue
            if sym in locals_here:
                # assignment before the decl cannot typecheck; defensive
                raise _Bail("decl-order")
            red = self._classify_reduction(sym, rhs)
            if red is None or sym in self.addr_taken \
                    or sym in self.reductions \
                    or self._acc_uses_elsewhere(sym, s):
                raise _Bail("reduction")
            op, rest = red
            acc_ty = lhs.type
            vty = self._vty(acc_ty)
            vacc = Symbol(vty, (sym.displayname or "acc") + "v")
            self.reductions[sym] = (op, vacc, acc_ty)
            out.append(tast.TAssign(
                [tast.TVar(vacc, vty)],
                [tast.TBinOp(op, tast.TVar(vacc, vty), self.vec(rest),
                             vty)]))
        if not self.bases:
            raise _Bail("no-memory")   # nothing to vectorize over
        if not any(stored for _, _, stored in self.bases.values()) \
                and not self.reductions:
            raise _Bail("no-effect")   # body computes nothing observable
        return out

    # -- whole-rewrite construction ----------------------------------------

    def _identity_const(self, op, ty) -> tast.TConst:
        value = _REDUCTION_IDENTITY[op]
        if value < 0 and not ty.signed:
            value &= (1 << (ty.bytes * 8)) - 1
        vty = T.VectorType(ty, self.width)
        return tast.TConst([value] * self.width, vty)

    def _range_end(self, base_sym, which_var, elem):
        """``(uint64)&base[bound]`` for the disjointness guard."""
        ptr_ty, _, _ = self.bases[base_sym]
        idx = tast.TVar(which_var, self.var_type)
        if self.var_type is not T.int64:
            # TIndex always indexes with int64 (the typechecker inserts
            # this conversion for source-level indexing)
            idx = tast.TCast(T.int64, idx, "numeric")
        access = tast.TIndex(tast.TVar(base_sym, ptr_ty), idx, elem)
        return tast.TCast(T.uint64, tast.TAddressOf(access), "ptr-int")

    def _alias_guards(self, s_var, l_var) -> list:
        """One disjointness test per (stored base, other base) pair over
        the accessed ranges ``[&p[_s], &p[_l])``."""
        guards = []
        syms = list(self.bases)
        for store_sym in syms:
            if not self.bases[store_sym][2]:
                continue
            for other in syms:
                if other is store_sym:
                    continue
                if self.bases[other][2] and syms.index(other) < \
                        syms.index(store_sym):
                    continue  # store/store pair already guarded once
                a_el = self.bases[store_sym][1]
                b_el = self.bases[other][1]
                a_lo = self._range_end(store_sym, s_var, a_el)
                a_hi = self._range_end(store_sym, l_var, a_el)
                b_lo = self._range_end(other, s_var, b_el)
                b_hi = self._range_end(other, l_var, b_el)
                disjoint = tast.TLogical(
                    "or",
                    tast.TBinOp("<=", a_hi, b_lo, T.bool_),
                    tast.TBinOp("<=", b_hi, a_lo, T.bool_))
                guards.append(disjoint)
        return guards

    def rewrite(self, vector_stmts: list) -> tast.TDoStat:
        loop, vt, W = self.loop, self.var_type, self.width
        s_var = Symbol(vt, "vs")
        l_var = Symbol(vt, "vl")
        n_var = Symbol(vt, "vn")
        e_var = Symbol(vt, "ve")
        m_var = Symbol(vt, "vm")

        def var(sym):
            return tast.TVar(sym, vt)

        def const(value):
            return tast.TConst(value, vt)

        stmts: list = [
            tast.TVarDecl([s_var], [vt], [loop.start]),
            tast.TVarDecl([l_var], [vt], [loop.limit]),
            tast.TVarDecl([n_var], [vt],
                          [tast.TBinOp("-", var(l_var), var(s_var), vt)]),
            tast.TVarDecl([e_var], [vt], [var(s_var)]),
        ]

        # guard: nonempty, at least one full vector, and disjoint arrays
        mask = -W if vt.signed else ((1 << (vt.bytes * 8)) - W)
        conds = [tast.TBinOp("<", var(s_var), var(l_var), T.bool_),
                 tast.TBinOp(">=", var(n_var), const(W), T.bool_)]
        conds.extend(self._alias_guards(s_var, l_var))
        cond = conds[0]
        for extra in conds[1:]:
            cond = tast.TLogical("and", cond, extra)

        then: list = [
            tast.TVarDecl([m_var], [vt],
                          [tast.TBinOp("&", var(n_var), const(mask), vt)]),
            tast.TAssign([var(e_var)],
                         [tast.TBinOp("+", var(s_var), var(m_var), vt)]),
        ]
        for acc_sym, (op, vacc, acc_ty) in self.reductions.items():
            then.append(tast.TVarDecl(
                [vacc], [vacc.type], [self._identity_const(op, acc_ty)]))

        vloop = tast.TForNum(loop.symbol, vt, var(s_var), var(e_var),
                             const(W), tast.TBlock(vector_stmts),
                             step_sign=1)
        vloop._vec_generated = True
        then.append(vloop)

        for acc_sym, (op, vacc, acc_ty) in self.reductions.items():
            merged = tast.TVar(acc_sym, acc_ty)
            for lane in range(W):
                lane_val = tast.TVectorIndex(
                    tast.TVar(vacc, vacc.type),
                    tast.TConst(lane, T.int64), acc_ty)
                merged = tast.TBinOp(op, merged, lane_val, acc_ty)
            then.append(tast.TAssign([tast.TVar(acc_sym, acc_ty)], [merged]))

        stmts.append(tast.TIf([(cond, tast.TBlock(then))], None))

        epilogue = tast.TForNum(loop.symbol, vt, var(e_var), var(l_var),
                                None, loop.body, step_sign=1,
                                location=loop.location)
        epilogue._vec_generated = True
        stmts.append(epilogue)

        replacement = tast.TDoStat(tast.TBlock(stmts),
                                   location=loop.location)
        replacement._vec_generated = True
        return replacement


def vectorize_loop(loop: tast.TForNum, addr_taken: set,
                   width: int = 0) -> tast.TDoStat:
    """Vectorize one innermost loop, raising :class:`_Bail` on failure.

    ``width=0`` derives the lane count from the widest lane type and
    ``REPRO_TERRA_VEC_BYTES``; an explicit width forces it.  No bailout
    accounting happens here — the pass walker (and
    :mod:`repro.schedule.lower`, which forwards the bail as a
    ``ScheduleError``) decide how a failure is reported."""
    # trial build: validates the loop and discovers the lane types
    trial = _LoopVectorizer(loop, width or 2, addr_taken)
    trial.qualify()
    trial.build_body()
    if not width:
        widest = max(ty.sizeof() for ty in trial.lane_types)
        width = config.get("REPRO_TERRA_VEC_BYTES") // widest
        if width < 2:
            raise _Bail("width")
    final = _LoopVectorizer(loop, width, addr_taken)
    final.qualify()
    body = final.build_body()
    return final.rewrite(body)


def _try_vectorize(loop: tast.TForNum, addr_taken: set):
    """``(replacement, None)`` on success, ``(None, reason)`` on bail."""
    try:
        return vectorize_loop(loop, addr_taken), None
    except _Bail as bail:
        return None, bail.reason


@register_pass
class VectorizePass(Pass):
    """Rewrite innermost countable loops into vector IR + epilogue."""

    name = "vectorize"

    def run(self, typed) -> bool:
        addr_taken = _addr_taken_symbols(typed.body)
        self.changed = False
        #: schedule-origin tokens whose bail was already counted this
        #: run — a Block/Tile/Unroll rewrite clones one source loop into
        #: several instances sharing an ``_sched_origin``; metrics must
        #: count one bail per *original* loop (PR 8 semantics) or
        #: schedules would inflate ``vec.bailouts.*`` incomparably
        self._bailed_origins: set = set()
        self._walk_block(typed.body, addr_taken)
        return self.changed

    def _walk_block(self, block: tast.TBlock, addr_taken: set) -> None:
        for pos, stat in enumerate(block.statements):
            if isinstance(stat, tast.TForNum) \
                    and not getattr(stat, "_vec_generated", False) \
                    and not _contains_loop(stat.body):
                replacement, reason = _try_vectorize(stat, addr_taken)
                if replacement is not None:
                    block.statements[pos] = replacement
                    self.changed = True
                    from ..trace.metrics import registry
                    registry().add("vec.loops")
                    continue
                origin = getattr(stat, "_sched_origin", None)
                if origin is None or id(origin) not in self._bailed_origins:
                    _count_bail(reason)
                    if origin is not None:
                        self._bailed_origins.add(id(origin))
            self._walk_children(stat, addr_taken)

    def _walk_children(self, node, addr_taken: set) -> None:
        if isinstance(node, tast.TIf):
            for _, body in node.branches:
                self._walk_block(body, addr_taken)
            if node.orelse is not None:
                self._walk_block(node.orelse, addr_taken)
            return
        for field in node._fields:
            child = getattr(node, field, None)
            if isinstance(child, tast.TBlock):
                self._walk_block(child, addr_taken)
