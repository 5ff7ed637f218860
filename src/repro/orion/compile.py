"""Orion's back end: schedule + IR → a staged Terra function.

Paper §6.2: "The user calls orion.compile to compile the IR into a Terra
function.  We then use Terra's staging annotations to generate the code
for the inner loop."

Scheduling model (Halide-inspired, as in the paper):

* ``inline`` — the stage's expression is substituted into its consumers
  (recompute per use, zero storage);
* ``materialize`` — the stage gets a full buffer and its own scanline
  loop;
* ``linebuffer`` — the stage is fused into its consumers' loop and keeps
  only a rolling window of rows in a scratchpad.

All buffers share one padded-row layout: width ``W = P + N + P + V`` where
``P`` is the pipeline's maximum |dx| footprint and ``V`` the vector width;
the padding is kept zero, which implements the zero boundary condition
(paper: "use a zero boundary condition") with no bounds checks in the
inner loop.  Out-of-range *rows* read from a shared zero row, selected by
row-pointer computation outside the x loop.

Vectorization (``Vectorize("x", 4/8)``) emits a vector main loop over Terra
vector types plus a scalar tail — the paper's "Orion can vectorize any
schedule using Terra's vector instructions".
"""

from __future__ import annotations

import time
from typing import Optional, Sequence

import numpy as np

from .. import terra, trace
from ..core import types as T
from ..errors import TerraError
from . import lang


class _StageInfo:
    def __init__(self, stage: lang.Stage, k: int):
        self.stage = stage
        self.policy = lang.MATERIALIZE
        self.reads: list[tuple["_StageInfo", int, int]] = []  # after inlining
        self.consumers: list[_StageInfo] = []
        self.lead = 0
        self.rows = 0          # buffer height R
        self.ex = 0            # x extent: computed over [-ex, N+ex)
        self.ey = 0            # y extent: computed over [-ey, N+ey)
        self.pad_x = 0         # columns consumers read beyond the domain
        self.group = None      # _Group
        self.slot = None       # scratch slot (None: input/output)
        self.buf = f"buf{k}_{_sanitize(stage.name)}"
        self.inlined_expr: Optional[lang.Expr] = None

    @property
    def name(self) -> str:
        return self.stage.name


def _sanitize(name: str) -> str:
    return "".join(c if c.isalnum() else "_" for c in name)


class _Group:
    def __init__(self):
        self.stages: list[_StageInfo] = []
        self.max_lead = 0

    def y_bounds(self, N: int) -> tuple[int, int]:
        ymin = min(-s.ey - s.lead for s in self.stages)
        ymax = max(N + s.ey - s.lead for s in self.stages)
        return ymin, ymax


def _collect_stages(outputs: Sequence[lang.Stage]) -> list[lang.Stage]:
    """All stages reachable from the outputs, topologically sorted
    (producers before consumers)."""
    order: list[lang.Stage] = []
    seen: set[int] = set()

    def visit_expr(e: lang.Expr):
        if isinstance(e, lang.Read):
            visit_stage(e.stage)
        elif isinstance(e, lang.BinOp):
            visit_expr(e.lhs)
            visit_expr(e.rhs)

    def visit_stage(s: lang.Stage):
        if s.id in seen:
            return
        seen.add(s.id)
        if s.expr is not None:
            visit_expr(s.expr)
        order.append(s)

    for out in outputs:
        visit_stage(out)
    return order


def _inline_expr(e: lang.Expr, dx: int, dy: int,
                 policies: dict[int, str]) -> lang.Expr:
    """Shift ``e`` by (dx,dy), substituting inline stages recursively."""
    if isinstance(e, (lang.Const, lang.Param)):
        return e
    if isinstance(e, lang.BinOp):
        return lang.BinOp(e.op, _inline_expr(e.lhs, dx, dy, policies),
                          _inline_expr(e.rhs, dx, dy, policies))
    assert isinstance(e, lang.Read)
    stage = e.stage
    ndx, ndy = e.dx + dx, e.dy + dy
    if not stage.is_input and policies.get(stage.id) == lang.INLINE:
        return _inline_expr(stage.expr, ndx, ndy, policies)
    return lang.Read(stage, ndx, ndy)


class CompiledStencil:
    """The result of :func:`compile_pipeline`: a Terra function plus the
    buffer geometry needed to call it from Python.

    ``fn`` takes ``scratch`` last: the zero row and every intermediate
    buffer, one float array this stencil owns (it is freed with it).
    Calling the stencil appends it."""

    def __init__(self, fn, inputs: list[str], outputs: list[str],
                 N: int, P: int, W: int, source: str, scratch: np.ndarray,
                 params: list[str] | None = None,
                 parallel_plan: dict | None = None):
        self.fn = fn
        self.scratch = scratch
        self.input_names = inputs
        self.output_names = outputs
        self.param_names = list(params or [])
        self.N = N
        self.P = P
        self.W = W
        self.source = source
        #: set for parallel schedules: {"nthreads": NT, "groups":
        #: [(ymin, ymax), ...]} — the per-group strip dispatch executed
        #: by __call__
        self.parallel_plan = parallel_plan

    # -- padded-buffer helpers ------------------------------------------------
    def pad(self, array: np.ndarray) -> np.ndarray:
        N, P, W = self.N, self.P, self.W
        if array.shape != (N, N):
            raise TerraError(f"expected a {N}x{N} image, got {array.shape}")
        buf = np.zeros((N, W), dtype=np.float32)
        buf[:, P:P + N] = array
        return buf

    def unpad(self, buf: np.ndarray) -> np.ndarray:
        return buf[:, self.P:self.P + self.N].copy()

    def alloc_out(self) -> np.ndarray:
        return np.zeros((self.N, self.W), dtype=np.float32)

    def run(self, *inputs: np.ndarray, **params: float) -> np.ndarray:
        """Convenience: pad inputs, run, return the unpadded output.
        Runtime scalar parameters are keyword arguments."""
        if len(inputs) != len(self.input_names):
            raise TerraError(
                f"pipeline takes {len(self.input_names)} inputs "
                f"({self.input_names}), got {len(inputs)}")
        missing = [p for p in self.param_names if p not in params]
        if missing:
            raise TerraError(f"missing parameter values: {missing}")
        unknown = [p for p in params if p not in self.param_names]
        if unknown:
            raise TerraError(f"unknown parameters: {unknown}")
        padded = [self.pad(np.asarray(a, dtype=np.float32)) for a in inputs]
        outs = [self.alloc_out() for _ in self.output_names]
        self(*outs, *padded, *[params[p] for p in self.param_names])
        if len(outs) == 1:
            return self.unpad(outs[0])
        return tuple(self.unpad(o) for o in outs)

    def __call__(self, *padded_buffers):
        """Raw call with pre-padded buffers, outputs first (for
        benchmarking loops).  Parallel schedules dispatch per-worker
        strips here; serial schedules call the Terra function directly."""
        if self.parallel_plan is None:
            return self.fn(*padded_buffers, self.scratch)
        return self._run_parallel(padded_buffers)

    _BIG = 1 << 30

    def _run_parallel(self, buffers) -> None:
        from ..parallel import _account, in_worker, run_tasks, split_range
        plan = self.parallel_plan
        nt = plan["nthreads"]
        BIG = self._BIG
        # bind the buffers once: every strip call then converts only its
        # four fresh scalars (on C, one plain ctypes foreign call)
        run = self.fn.compile().tail_caller(4, *buffers, self.scratch)
        if in_worker():
            # nested dispatch: run the whole pipeline serially inline
            run(-1, 0, -BIG, BIG)
            return
        per_group = [split_range(ymin, ymax, nt)
                     for ymin, ymax in plan["groups"]]
        nworkers = max((len(s) for s in per_group), default=0)
        if nworkers <= 1:
            run(-1, 0, -BIG, BIG)  # degenerate ranges: stay serial
            return
        # SPMD shape: ONE pool dispatch per pipeline call; worker ``wid``
        # walks the groups computing its own strip of each, with a
        # barrier between groups (consumers of a group's materialized
        # rows only start once every strip has written them).  A worker
        # that traps keeps hitting the barriers — its siblings must
        # never block on a missing participant — and re-raises at the
        # end, so every non-trapping strip completes (the same partial-
        # writes-visible shape as a serial trap mid-loop).
        import threading
        barrier = threading.Barrier(nworkers)
        tracing = trace._runtime_active

        def worker(wid):
            def task():
                err = None
                for k, strips in enumerate(per_group):
                    try:
                        if wid < len(strips):
                            s0, s1 = strips[wid]
                            if tracing:
                                with trace.span("parallel.chunk:orion",
                                                cat="exec", group=k,
                                                lo=s0, hi=s1):
                                    run(k, wid, s0, s1)
                            else:
                                run(k, wid, s0, s1)
                    except BaseException as exc:
                        err = err or exc
                    finally:
                        barrier.wait()
                if err is not None:
                    raise err
            return task

        t0 = time.perf_counter()
        with trace.span("orion.parallel", cat="orion", nthreads=nt,
                        groups=len(per_group)):
            errors = run_tasks([worker(w) for w in range(nworkers)],
                               nthreads=nworkers)
        _account(sum(len(s) for s in per_group), time.perf_counter() - t0,
                 errors)


def _loop_directives(tile_schedule) -> tuple[int, int]:
    """``(V, NT)`` from the loop schedule: ``Vectorize("x", V)`` is the
    scanline vector width and ``Parallel("y", NT)`` the worker-strip
    split (0 = auto; ``REPRO_TERRA_THREADS`` overrides either, see
    :func:`repro.parallel.default_nthreads`).  ``NT <= 1`` selects the
    exact serial code path — byte-identical generated C."""
    from ..parallel import default_nthreads
    from ..schedule import Parallel, Schedule, ScheduleError, Vectorize
    if not isinstance(tile_schedule, Schedule):
        raise ScheduleError(
            f"tile_schedule must be a repro.schedule.Schedule, "
            f"got {tile_schedule!r}")
    V = NT = 0
    for d in tile_schedule:
        if isinstance(d, Vectorize):
            if d.axis != "x" or d.width not in (2, 4, 8, 16):
                raise ScheduleError(
                    f"{d}: Orion vectorizes the scanline axis 'x' with "
                    f"an explicit width of 2/4/8/16")
            V = d.width
        elif isinstance(d, Parallel):
            if d.axis != "y":
                raise ScheduleError(
                    f"{d}: Orion parallelizes the row axis 'y'")
            NT = default_nthreads(d.nthreads)
        else:
            raise ScheduleError(
                f"{d}: Orion loop schedules support Vectorize('x', V) "
                f"and Parallel('y', NT); stage storage policies go in "
                f"the policy schedule= dict")
    return V, NT


def compile_pipeline(output, N: int, schedule: Optional[dict] = None,
                     default_policy: str = lang.MATERIALIZE,
                     tile_schedule=None) -> CompiledStencil:
    """Compile an Orion pipeline to a Terra function for N×N images.

    ``output`` may be a single expression/stage or a list of them (a
    multi-output pipeline: one fused function filling several buffers).
    ``schedule`` maps stages (or stage names) to *storage* policies;
    unlisted stages use their declared ``policy=`` or ``default_policy``.

    ``tile_schedule`` carries the *loop* directives: a
    :class:`repro.schedule.Schedule` of ``Vectorize("x", V)`` (vector
    main loop plus scalar tail) and ``Parallel("y", NT)`` (the scanline
    loop split into per-worker strips dispatched through
    :mod:`repro.parallel`).  It is recorded on the result as
    ``stencil.tile_schedule``.
    """
    from ..schedule import Schedule
    if tile_schedule is None:
        tile_schedule = Schedule()
    V, NT = _loop_directives(tile_schedule)
    with trace.span("orion.compile", cat="orion", N=N, vectorize=V,
                    nthreads=NT) as sp:
        stencil = _compile_pipeline(output, N, V, schedule, default_policy,
                                    NT)
        stencil.tile_schedule = tile_schedule
        sp.set(stages=len(stencil.input_names) + len(stencil.output_names))
        return stencil


def _compile_pipeline(output, N, V, schedule, default_policy, NT):
    outputs = output if isinstance(output, (list, tuple)) else [output]
    out_stages = [lang.as_stage(o, f"out{i}" if len(outputs) > 1 else "out")
                  for i, o in enumerate(outputs)]
    out_ids = {s.id for s in out_stages}
    stages = _collect_stages(out_stages)

    # -- resolve policies -------------------------------------------------------
    schedule = dict(schedule or {})
    by_name = {s.name: s for s in stages}
    policies: dict[int, str] = {}
    for key, policy in schedule.items():
        st = by_name.get(key) if isinstance(key, str) else key
        if st is None or st.id not in {s.id for s in stages}:
            raise TerraError(f"schedule entry {key!r} is not in the pipeline")
        if policy not in lang.POLICIES:
            raise TerraError(f"unknown policy {policy!r}")
        policies[st.id] = policy
    for s in stages:
        if s.id not in policies:
            policies[s.id] = s.default_policy or default_policy
        if s.is_input:
            policies[s.id] = lang.MATERIALIZE
        elif s.bounded and policies[s.id] == lang.INLINE:
            # a boundary condition cannot be recomputed inline; the
            # closest storage-free schedule is line buffering, but to keep
            # 'inline everything' schedules valid we fall back to storage
            policies[s.id] = lang.MATERIALIZE
    for s in out_stages:
        policies[s.id] = lang.MATERIALIZE  # outputs are materialized

    # -- build stage infos with inlined expressions ------------------------------
    infos: dict[int, _StageInfo] = {}
    compute_order: list[_StageInfo] = []
    for s in stages:
        if not s.is_input and policies[s.id] == lang.INLINE:
            continue
        info = _StageInfo(s, len(infos))
        info.policy = policies[s.id]
        infos[s.id] = info
        if not s.is_input:
            info.inlined_expr = _inline_expr(s.expr, 0, 0, policies)
            compute_order.append(info)

    def expr_reads(e: lang.Expr, acc: list):
        if isinstance(e, lang.Read):
            acc.append(e)
        elif isinstance(e, lang.BinOp):
            expr_reads(e.lhs, acc)
            expr_reads(e.rhs, acc)

    for info in compute_order:
        reads: list[lang.Read] = []
        expr_reads(info.inlined_expr, reads)
        for r in reads:
            producer = infos[r.stage.id]
            info.reads.append((producer, r.dx, r.dy))
            if info not in producer.consumers:
                producer.consumers.append(info)

    # -- region expansion (Halide semantics): every stage is computed over
    # the region its consumers read, so the schedule cannot change results
    # at the boundary.  The zero boundary condition applies to *inputs*.
    for info in reversed(compute_order):
        for producer, dx, dy in info.reads:
            # every producer must have zero-padded columns wide enough for
            # its consumers' reads...
            producer.pad_x = max(producer.pad_x, info.ex + abs(dx))
            if producer.stage.is_input or producer.stage.bounded \
                    or producer.stage.id in out_ids:
                continue  # ...but a zero boundary never expands the domain
            producer.ex = max(producer.ex, info.ex + abs(dx))
            producer.ey = max(producer.ey, info.ey + abs(dy))
    P = 1  # minimum padding so vector tails stay in bounds
    for info in infos.values():
        P = max(P, info.ex, info.pad_x)

    # -- grouping: linebuffered stages fuse into their consumers -----------------
    parent: dict[int, int] = {id(i): id(i) for i in infos.values()}
    by_pid = {id(i): i for i in infos.values()}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a, b):
        parent[find(a)] = find(b)

    for info in compute_order:
        if info.policy == lang.LINEBUFFER:
            for consumer in info.consumers:
                union(id(info), id(consumer))
            if not info.consumers:
                raise TerraError(
                    f"cannot linebuffer {info.name}: it has no consumers")

    groups: dict[int, _Group] = {}
    group_order: list[_Group] = []
    for info in compute_order:
        root = find(id(info))
        group = groups.get(root)
        if group is None:
            group = _Group()
            groups[root] = group
            group_order.append(group)
        group.stages.append(info)
        info.group = group

    # -- leads and buffer heights ---------------------------------------------
    for group in group_order:
        for info in reversed(group.stages):  # consumers first
            lead = 0
            for consumer in info.consumers:
                if consumer.group is group:
                    maxdy = max((dy for p, dx, dy in consumer.reads
                                 if p is info), default=0)
                    lead = max(lead, consumer.lead + max(0, maxdy))
            info.lead = lead
            group.max_lead = max(group.max_lead, lead)
    for info in list(infos.values()):
        if info.policy == lang.LINEBUFFER:
            height = 1
            for consumer in info.consumers:
                for p, dx, dy in consumer.reads:
                    if p is info:
                        height = max(height, info.lead - consumer.lead - dy + 1)
            info.rows = height
        elif info.stage.is_input or info.stage.id in out_ids:
            info.rows = N
        else:
            info.rows = N + 2 * info.ey  # the expanded computed region

    W = P + N + P + max(V, 1)

    # -- buffer slot assignment (liveness-based reuse) ---------------------------
    # Intermediate stage buffers live in the stencil's scratch array,
    # persist across calls, and are shared between stages whose lifetimes
    # do not overlap — a Jacobi chain of any length needs only two
    # buffers, just like a hand-written solver.
    scratch_floats = _assign_slots(infos, group_order, out_ids, W, NT)

    if NT > 1:
        _check_parallelizable(group_order)

    # -- code generation ----------------------------------------------------------
    src, env, input_names, params = _generate(
        infos, compute_order, group_order, out_stages, stages, N, P, W, V,
        NT)
    fn = terra(src, env=env, filename=f"<orion:{out_stages[0].name}>")
    # submit the native build to the buildd pool now (capturing any active
    # extra_cflags), so compilation overlaps the caller's setup work; the
    # first call of the stencil joins the pending build.
    fn.compile_async()
    plan = None
    if NT > 1:
        plan = {"nthreads": NT,
                "groups": [group.y_bounds(N) for group in group_order]}
    return CompiledStencil(fn, input_names,
                           [s.name for s in out_stages], N, P, W, src,
                           np.zeros(scratch_floats, dtype=np.float32),
                           params, parallel_plan=plan)


def _warmup_rows(group: _Group) -> int:
    """Rows a worker strip re-runs before its own region so every
    intra-group line buffer is warm when the strip proper starts.

    A consumed linebuffered row depends on producer rows at most
    ``rows - 1`` loop indices back (that is how the window height is
    computed), so chains through the group's line buffers span at most
    the sum of their heights — re-running that many indices, computing
    *only* linebuffered stages (worker-private windows), rebuilds the
    exact state the serial loop would have at the strip boundary."""
    return sum(s.rows for s in group.stages if s.policy == lang.LINEBUFFER)


def _check_parallelizable(group_order) -> None:
    """Strip dispatch recomputes only linebuffered stages during warm-up
    (shared materialized rows must have exactly one writer — the strip
    that owns them).  That is sound whenever every intra-group read of a
    linebuffered stage comes *from* linebuffered producers, inputs, or
    prior groups — true of every schedule the repo stages.  Reject the
    remaining shape instead of computing garbage."""
    for group in group_order:
        in_group = {id(s) for s in group.stages}
        for info in group.stages:
            if info.policy != lang.LINEBUFFER:
                continue
            for producer, dx, dy in info.reads:
                if id(producer) in in_group \
                        and producer.policy != lang.LINEBUFFER \
                        and not producer.stage.is_input:
                    raise TerraError(
                        f"parallel: linebuffered stage {info.name!r} reads "
                        f"materialized stage {producer.name!r} fused into "
                        f"the same group; this shape cannot be strip-"
                        f"parallelized — materialize {info.name!r} or drop "
                        f"the parallel directive")


def _assign_slots(infos, group_order, out_ids, W: int, NT: int = 0) -> int:
    """Give every intermediate stage a slot of the scratch array and
    return the array's length in floats.  The zero row comes first; each
    slot's ``offset`` is a multiple of 16 floats."""
    group_index = {id(g): i for i, g in enumerate(group_order)}
    # birth = own group index; death = last consumer's group index
    events: list[tuple[int, int, _StageInfo]] = []
    for info in infos.values():
        if info.stage.is_input or info.stage.id in out_ids:
            info.slot = None
            continue
        birth = group_index[id(info.group)]
        death = birth
        for consumer in info.consumers:
            death = max(death, group_index[id(consumer.group)])
        events.append((birth, death, info))
    slots: list[dict] = []  # {"size": floats, "free_at": group index}
    for birth, death, info in sorted(events, key=lambda e: (e[0], e[1])):
        if NT > 1 and info.policy == lang.LINEBUFFER:
            # under strip parallelism each worker rolls its own window:
            # the slot holds NT windows side by side (base + wid*stride)
            # and is never shared with other stages
            stride = info.rows * W
            chosen = {"size": NT * stride, "free_at": len(group_order),
                      "stride": stride}
            slots.append(chosen)
            info.slot = chosen
            continue
        size = info.rows * W
        chosen = None
        for slot in slots:
            if "stride" in slot:
                continue  # private per-worker line buffer, not shareable
            if slot["free_at"] <= birth and slot["size"] >= size:
                chosen = slot
                break
        if chosen is None:
            chosen = {"size": size, "free_at": -1}
            slots.append(chosen)
        chosen["free_at"] = death + 1
        chosen["size"] = max(chosen["size"], size)
        info.slot = chosen
    end = _round16(W)
    for slot in slots:
        slot["offset"] = end
        end += _round16(slot["size"])
    return end


def _round16(floats: int) -> int:
    return -(-floats // 16) * 16


def _generate(infos, compute_order, group_order, out_stages, stages,
              N, P, W, V, NT=0):
    from .. import fmax, fmin
    float4 = T.vector(T.float32, V) if V else None
    env = {"fmin": fmin, "fmax": fmax}
    if float4 is not None:
        env["vecT"] = float4

    inputs = [s for s in stages if s.is_input]
    input_names = [s.name for s in inputs]
    param_names: list[str] = []

    def find_params(e):
        if isinstance(e, lang.Param):
            if e.name not in param_names:
                param_names.append(e.name)
        elif isinstance(e, lang.BinOp):
            find_params(e.lhs)
            find_params(e.rhs)

    for info in compute_order:
        find_params(info.inlined_expr)
    out_ids = {s.id for s in out_stages}
    # strip-dispatch control params (parallel schedules only): gsel
    # selects one group (-1 = all), [ylo, yhi) is this worker's strip of
    # loop indices, wid picks its private line-buffer windows
    par_params = [] if NT <= 1 else [
        "gsel : int32", "wid : int32", "ylo : int64", "yhi : int64"]
    params = ", ".join(
        par_params
        + [f"out_{_sanitize(s.name)} : &float" for s in out_stages]
        + [f"in_{_sanitize(s.name)} : &float" for s in inputs]
        + [f"prm_{_sanitize(p)} : float" for p in param_names]
        + ["scratch : &float"])

    name = f"orion_{_sanitize(out_stages[0].name)}"
    lines: list[str] = [f"terra {name}({params}) : {{}}"]
    w = lines.append

    # the zero row is indexed like data rows (columns may be negative
    # within the padded extent), so it gets the same +P column offset
    w(f"  var zrow = scratch + {P}")
    for info in infos.values():
        if info.stage.is_input:
            w(f"  var {info.buf} = in_{_sanitize(info.name)}")
        elif info.stage.id in out_ids:
            w(f"  var {info.buf} = out_{_sanitize(info.name)}")
        elif "stride" in info.slot:
            # per-worker private line-buffer window
            w(f"  var {info.buf} = scratch + {info.slot['offset']}"
              f" + wid * {info.slot['stride']}")
        else:
            w(f"  var {info.buf} = scratch + {info.slot['offset']}")

    # group loops ------------------------------------------------------------------
    for k, group in enumerate(group_order):
        ymin, ymax = group.y_bounds(N)
        if NT > 1:
            # one strip of this group: loop indices [ylo, yhi) clamped to
            # the group's own range, plus a warm-up region of D indices
            # before ylo that recomputes only linebuffered stages (into
            # this worker's private windows) so the buffers hold exactly
            # the serial loop's state when the strip proper begins
            D = _warmup_rows(group)
            w(f"  if gsel < 0 or gsel == {k} then")
            w(f"    var y0 : int64 = {ymin}")
            w(f"    var y1 : int64 = {ymax}")
            w("    if yhi < y1 then y1 = yhi end")
            w(f"    var yw : int64 = ylo - {D}")
            w("    if yw > y0 then y0 = yw end")
            w("    for y = y0, y1 do")
            for info in group.stages:
                _emit_stage(w, info, N, P, W, V,
                            guard_warmup=(D > 0 and
                                          info.policy != lang.LINEBUFFER))
            w("    end")
            w("  end")
        else:
            w(f"  for y = {ymin}, {ymax} do")
            for info in group.stages:
                _emit_stage(w, info, N, P, W, V)
            w("  end")
    w("end")
    return "\n".join(lines), env, input_names, param_names


def _row_index(info: _StageInfo, row_var: str, N: int) -> str:
    """The physical row index for logical row ``row_var`` of a stage."""
    if info.stage.is_input:
        return row_var
    if info.policy == lang.LINEBUFFER:
        return f"(({row_var} + {info.ey}) % {info.rows})"
    if info.ey:
        return f"({row_var} + {info.ey})"
    return row_var


def _valid_rows(info: _StageInfo, N: int) -> tuple[int, int]:
    """The logical rows a producer actually holds: inputs and bounded
    stages exist on [0,N) (zero-extended outside), unbounded computed
    stages on their expanded region."""
    if info.stage.is_input or info.stage.bounded:
        return 0, N
    return -info.ey, N + info.ey


def _emit_stage(w, info: _StageInfo, N: int, P: int, W: int, V: int,
                guard_warmup: bool = False) -> None:
    lead = info.lead
    lo, hi = -info.ey, N + info.ey
    xlo, xhi = -info.ex, N + info.ex
    w("    do")
    w(f"      var r = y + {lead}")
    cond = f"r >= {lo} and r < {hi}"
    if guard_warmup:
        # warm-up indices (y < ylo) belong to the neighbouring strip:
        # shared rows must keep exactly one writer
        cond += " and y >= ylo"
    w(f"      if {cond} then")
    # row pointers for every (producer, dy) this stage reads
    rowptrs: dict[tuple[int, int], str] = {}
    for producer, dx, dy in info.reads:
        key = (producer.stage.id, dy)
        if key in rowptrs:
            continue
        rp = f"rp_{producer.buf}_{'m' if dy < 0 else ''}{abs(dy)}"
        rowptrs[key] = rp
        plo, phi = _valid_rows(producer, N)
        w(f"        var {rp} : &float = zrow")
        w(f"        var rr_{rp} = r + {dy}")
        w(f"        if rr_{rp} >= {plo} and rr_{rp} < {phi} then")
        w(f"          {rp} = {producer.buf} + "
          f"{_row_index(producer, f'rr_{rp}', N)} * {W} + {P}")
        w("        end")
    w(f"        var wrow = {info.buf} + {_row_index(info, 'r', N)} "
      f"* {W} + {P}")
    scalar = _expr_code(info.inlined_expr, rowptrs, vector=False)
    if V:
        vec = _expr_code(info.inlined_expr, rowptrs, vector=True)
        w(f"        var x = {xlo}")
        w(f"        while x + {V} <= {xhi} do")
        w(f"          @[&vecT](&wrow[x]) = {vec}")
        w(f"          x = x + {V}")
        w("        end")
        w(f"        while x < {xhi} do")
        w(f"          wrow[x] = {scalar}")
        w("          x = x + 1")
        w("        end")
    else:
        w(f"        for x = {xlo}, {xhi} do")
        w(f"          wrow[x] = {scalar}")
        w("        end")
    # a bounded stage's buffer slot may hold another stage's expanded
    # columns; its consumers expect zeros beyond the domain, so re-zero
    # the pad columns they read
    if info.stage.bounded and info.pad_x:
        w(f"        for x = {-info.pad_x}, 0 do wrow[x] = 0.0f end")
        w(f"        for x = {N}, {N + info.pad_x} do wrow[x] = 0.0f end")
    w("      end")
    w("    end")


def _expr_code(e: lang.Expr, rowptrs: dict, vector: bool) -> str:
    if isinstance(e, lang.Param):
        name = f"prm_{_sanitize(e.name)}"
        return f"[vecT]({name})" if vector else name
    if isinstance(e, lang.Const):
        text = repr(e.value)
        lit = f"{text}f" if ("e" in text or "." in text) else f"{text}.0f"
        if vector:
            return f"[vecT]({lit})"
        return lit
    if isinstance(e, lang.Read):
        rp = rowptrs[(e.stage.id, e.dy)]
        if vector:
            return f"(@[&vecT](&{rp}[x + {e.dx}]))"
        return f"{rp}[x + {e.dx}]"
    assert isinstance(e, lang.BinOp)
    lhs = _expr_code(e.lhs, rowptrs, vector)
    rhs = _expr_code(e.rhs, rowptrs, vector)
    if e.op == "min":
        return f"[fmin]({lhs}, {rhs})"
    if e.op == "max":
        return f"[fmax]({lhs}, {rhs})"
    return f"({lhs} {e.op} {rhs})"


