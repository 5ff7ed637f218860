"""Every measured series of the evaluation, computed in one place.

    python benchmarks/report.py            # scaled-down sizes (~4 min)
    python benchmarks/report.py --full     # paper-scale sizes
    python benchmarks/report.py --only fig9

Each experiment is one function returning its series as ``Table``s of raw
numbers.  This script prints them (the data behind EXPERIMENTS.md);
``benchmarks/test_shapes.py`` asserts who wins on the same functions.
First the paper's Section 6 (Figure 6 GFLOPS with the E8 naive-vs-tuned
factor, Figure 8 schedule speedups in both compiler modes, the §6.2
inlining table, the §6.3.1 dispatch ratio, Figure 9 GB/s), then the
shapes this repository claims for its own machinery.  Trend numbers
(per-layer times, call overhead, serve latency of plain calls) live in
``benchmarks/ledger``, not here; ``serve_chunked`` is the chunked
traffic the ledger has no workload for.
"""

import argparse
import os
import signal
import subprocess
import sys
import tempfile
import threading
import time
from contextlib import contextmanager

import numpy as np

# run from a checkout (`python benchmarks/report.py`) without installing
SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
sys.path.insert(0, SRC)

from repro import double, float_, terra
from repro.apps import attention, dequant, scan
from repro.apps.areafilter import CAreaFilter, build_area_filter
from repro.apps.dispatch import (build_c_dispatch, build_fatptr_dispatch,
                                 build_terra_dispatch)
from repro.apps.fluid import (_C_SOURCE_TEMPLATE, FluidParams,
                              initial_conditions, make_c_fluid,
                              make_orion_fluid)
from repro.apps.mesh import build_mesh_kernels, random_mesh
from repro.apps.pointwise import build_pipeline
from repro.autotune.genkernel import genkernel
from repro.autotune.matmul import (blocked_matmul, make_gemm,
                                   make_gemm_packed, naive_matmul)
from repro.autotune.tuner import time_gemm
from repro.backend.c.runtime import extra_cflags
from repro.bench.cbaseline import compile_c
from repro.bench.harness import Table
from repro.buildd.cache import ArtifactCache
from repro.buildd.service import CompileService
from repro.core import types as T
from repro.exec import TieredPolicy, policy_override
from repro.lib.sort import Sort
from repro.orion import lang as L
from repro.passes import (PIPELINE_CANON, PIPELINE_NONE, PIPELINE_VEC,
                          pipeline_override)
from repro.serve import ServeClient, ServeError, wait_until_ready
from repro.serve.__main__ import SAXPY_SOURCE

#: Figure 8's two compiler modes: modern gcc auto-vectorizes the scalar
#: baseline; `-fno-tree-vectorize` restores what 2013 compilers emitted
MODES = {"default flags": (), "2013 emulation": ("-fno-tree-vectorize",)}


def best_interleaved(fns, rounds):
    """Best time of each thunk, all taking turns within every round, so
    drift on a shared host lands on both sides of a ratio."""
    best = [float("inf")] * len(fns)
    for _ in range(rounds + 1):  # the first round also warms up
        for i, fn in enumerate(fns):
            t0 = time.perf_counter()
            fn()
            best[i] = min(best[i], time.perf_counter() - t0)
    return best


def best_of(fn, reps):
    return best_interleaved([fn], reps)[0]


# -- the paper's Section 6 ----------------------------------------------------

def fig6(full=False):
    """[DGEMM, SGEMM]; "vs first row" on DGEMM is E8's naive-vs-tuned."""
    N = 1024 if full else 512
    tables = []
    for elem, np_dtype, label, cfg in [
            (double, np.float64, "DGEMM", dict(NB=128, RM=4, RN=2, V=4)),
            (float_, np.float32, "SGEMM", dict(NB=64, RM=4, RN=2, V=8))]:
        rng = np.random.RandomState(0)
        A = np.ascontiguousarray(rng.rand(N, N).astype(np_dtype))
        B = np.ascontiguousarray(rng.rand(N, N).astype(np_dtype))
        C = np.zeros((N, N), dtype=np_dtype)
        if elem is double:  # naive at <=512: same footprint class
            rows = [("naive",
                     time_gemm(naive_matmul(), min(N, 512), elem, 1)),
                    ("blocked", time_gemm(blocked_matmul(64), N, elem, 1))]
        else:
            rows = [("unvectorized kernel (V=1)",
                     time_gemm(make_gemm_packed(NB=64, RM=4, RN=2, V=1,
                                                elem=elem), N, elem, 1))]
        tuned = make_gemm_packed(elem=elem, **cfg)
        rows.append(("Terra (tuned)", time_gemm(tuned, N, elem, 3)))
        blas_s = best_of(lambda: np.dot(A, B, out=C), 3)
        rows.append(("vendor BLAS (numpy)", 2.0 * N ** 3 / blas_s / 1e9))
        table = Table(f"Figure 6 — {label} at N={N} (GFLOPS)",
                      ["series", "GFLOPS", "vs first row"])
        for name, g in rows:
            table.add(name, g, f"{g / rows[0][1]:.1f}x")
        tables.append(table)
    return tables


#: rounds each Fig. 8 rung takes turns with its C run (EXPERIMENTS.md
#: E27 times the area filter both ways)
FIG8_ROUNDS = 11


def _fig8(title, unit, c_run, orion_run, V):
    """One table per compiler mode: reference C, then the Orion ladder.
    ``c_run(flags)`` and ``orion_run(vec, lb)`` build a solver and return
    one run of it.  Each rung takes turns with the C run in every round
    (``best_interleaved``), so host drift lands on both sides of its
    speedup, which is against the C time of its own rounds (``C
    <unit>``); the reference row is the C run's best over all rungs."""
    tables = []
    for mode, flags in MODES.items():
        c = c_run(flags)
        rungs = []
        for label, vec, lb in [("matching Orion", 0, False),
                               ("+ vectorization", V, False),
                               ("+ line buffering", V, True)]:
            with extra_cflags(*flags):
                orion = orion_run(vec, lb)
            to, tc = best_interleaved([orion, c], FIG8_ROUNDS)
            rungs.append((label, to, tc))
        table = Table(f"{title}, {mode}",
                      ["schedule", unit, f"C {unit}", "speedup"])
        best_c = min(tc for _, _, tc in rungs) * 1000
        table.add("reference C", best_c, best_c, "1.00x")
        for label, to, tc in rungs:
            table.add(label, to * 1000, tc * 1000, f"{tc / to:.2f}x")
        tables.append(table)
    return tables


def fig8_fluid(full=False):
    N = 1024 if full else 512
    params = FluidParams(N)
    state = initial_conditions(N)

    def step(sim):
        sim.set_state(*state)
        return sim.step

    return _fig8(
        f"Figure 8 (top) — fluid at {N}²", "ms/step",
        lambda flags: step(make_c_fluid(params, flags=flags)),
        lambda vec, lb: step(make_orion_fluid(params, vectorize=vec,
                                              linebuffer=lb)), 4)


def fluid_parts(full=False):
    """ROADMAP 5(a)'s attribution: each part of the fluid step on the
    ledger's schedule (vectorized + line-buffered) against the matching
    function of the C reference, both on a live state.  The C parts come
    from a copy of ``_C_SOURCE_TEMPLATE`` with ``static`` dropped,
    compiled on its own, so the floor's unit is untouched."""
    N = 1024 if full else 512
    p = FluidParams(N)
    parts = compile_c(
        _C_SOURCE_TEMPLATE.format(N=N).replace("static void ", "void "), {
            "jacobi": (["ptr", "ptr", "float", "float", "int"], "void"),
            "project": (["ptr"] * 4 + ["int"], "void"),
            "advect": (["ptr"] * 4 + ["float"], "void")})
    o = make_orion_fluid(p, vectorize=4, linebuffer=True)
    c = make_c_fluid(p)
    for sim in (o, c):
        sim.set_state(*initial_conditions(N))
        for _ in range(2):
            sim.step()
    a = p.dt * p.visc * N * N
    rows = [
        ("diffuse chain", lambda: o.diffuse_visc(o._u1, o.u),
         lambda: parts.jacobi(c._u1, c.u, a, 1 + 4 * a, p.diffuse_iters)),
        ("fused projection",
         lambda: o.project_pipe(o._u1, o._v1, o.u, o.v),
         lambda: parts.project(c._u1, c._v1, c._p, c._div,
                               p.project_iters)),
        ("advect", lambda: o._advect(o.advect_d, o._u1, o.u, o.u, o.v),
         lambda: parts.advect(c._u1, c.u, c.u, c.v, p.dt)),
        ("velocity advect (u, v)",
         lambda: o._advect(o.advect_uv, o._u1, o._v1, o.u, o.v, o.u, o.v),
         lambda: (parts.advect(c._u1, c.u, c.u, c.v, p.dt),
                  parts.advect(c._v1, c.v, c.u, c.v, p.dt)))]
    table = Table(f"fluid step parts at {N}², vectorized + line-buffered "
                  "vs the C reference's functions",
                  ["part", "Orion ms", "C ms", "Orion / C"])
    for name, orion_part, c_part in rows:
        to, tc = best_interleaved([orion_part, c_part], 21)
        table.add(name, to * 1000, tc * 1000, f"{to / tc:.2f}x")
    return [table]


def fig8_area(full=False):
    N = 1024 if full else 512
    img = np.random.RandomState(5).rand(N, N).astype(np.float32)

    def c_run(flags):
        caf = CAreaFilter(N, flags=flags)
        src, out = caf.pad(img), caf.alloc_out()
        return lambda: caf(src, out)

    def orion_run(vec, lb):
        af = build_area_filter(N, vectorize=vec, linebuffer=lb)
        src, out = af.pad(img), af.alloc_out()
        return lambda: af(out, src)

    return _fig8(f"Figure 8 (bottom) — area filter at {N}²", "ms",
                 c_run, orion_run, 8)


def pointwise(full=False):
    N = 2048 if full else 1024
    img = np.random.RandomState(9).rand(N, N).astype(np.float32)

    def t(policy, vec=0):
        pipe = build_pipeline(N, policy=policy, vectorize=vec)
        src = pipe.pad(img)
        out = pipe.alloc_out()
        return best_of(lambda: pipe(out, src), 5) * 1000

    base = t(L.MATERIALIZE)
    table = Table(f"§6.2 point-wise pipeline at {N}² (paper: inline 3.8x)",
                  ["schedule", "ms/frame", "speedup"])
    for label, ms in [("materialize every stage", base),
                      ("line-buffer intermediates", t(L.LINEBUFFER)),
                      ("inline everything", t(L.INLINE)),
                      ("inline + 8-wide vectors", t(L.INLINE, 8))]:
        table.add(label, ms, f"{base / ms:.2f}x")
    return [table]


def dispatch(full=False):
    ITERS = 5_000_000
    tk, ck, fk = (build_terra_dispatch(), build_c_dispatch(),
                  build_fatptr_dispatch())
    obj, cobj, fobj = (tk.make(1.0001, 0.5), ck.c_make(1.0001, 0.5),
                       fk.make(1.0001, 0.5))
    variants = [
        ("Terra class system (virtual)", tk.loop_virtual, obj),
        ("C vtable (what C++ compiles to)", ck.c_loop_virtual, cobj),
        ("Terra fat-pointer interface (virtual)", fk.loop_virtual, fobj),
        ("Terra direct call", tk.loop_direct, obj),
        ("C direct call", ck.c_loop_direct, cobj)]
    secs = best_interleaved([lambda loop=loop, o=o: loop(o, ITERS)
                             for _, loop, o in variants], 5)
    table = Table("§6.3.1 dispatch micro-benchmark (paper: within 1%)",
                  ["variant", "ns/call"])
    for (label, _, _), t in zip(variants, secs):
        table.add(label, t / ITERS * 1e9)
    tk.free(obj)
    ck.c_release(cobj)
    fk.free(fobj)
    return [table]


def fig9(full=False):
    nverts = 400_000 if full else 200_000
    ntris = nverts * 2
    positions, tris = random_mesh(nverts, ntris)
    flat_pos = np.ascontiguousarray(positions.reshape(-1))
    flat_tris = np.ascontiguousarray(tris.reshape(-1))
    table = Table(f"Figure 9 — data layout, {nverts} verts / {ntris} tris "
                  f"(GB/s, higher better; AoSoA is our extension)",
                  ["layout", "calc normals", "translate"])
    with extra_cflags("-fstrict-aliasing"):
        for layout in ("AoS", "SoA", "AoSoA"):
            k = build_mesh_kernels(layout)
            t = k.alloc(nverts)
            k.fill(t, flat_pos, nverts)
            tn = best_of(lambda: k.calc_normals(t, flat_tris, ntris), 3)
            tt = best_of(lambda: k.translate(t, 0.1, 0.1, 0.1, nverts), 10)
            table.add(layout, ntris * 108 / tn / 1e9, nverts * 24 / tt / 1e9)
            k.release(t)
    return [table]


# -- this repository's own shapes ---------------------------------------------

AUTOVEC_SRC = """
terra k(a : &{e}, b : &{e}, c : &{e}, d : &{e},
        o1 : &{e}, o2 : &{e}, o3 : &{e}, o4 : &{e},
        n : int, reps : int) : {{}}
  for r = 0, reps do
    a[0] = [{e}](r)
    for i = 0, n do
      o1[i] = a[i] * b[i] + c[i] * d[i] + a[i] * c[i] + b[i] * d[i]
      o2[i] = (a[i] + b[i]) * (c[i] + d[i]) - a[i] * d[i]
      o3[i] = a[i] * a[i] + b[i] * b[i] + c[i] * c[i] + d[i] * d[i]
      o4[i] = (a[i] - b[i]) * (c[i] - d[i]) + b[i] * c[i]
    end
  end
end
"""


def autovec(full=False):
    """Level-3 C vs scalar level-1 C on the shape gcc's own vectorizer
    gives up on: four input and four output pointers exceed its
    alias-versioning budget, while passes/vectorize.py proves
    disjointness with one guard chain.  Repetitions run inside the
    kernel so the FFI call does not drown the loop."""
    n, reps = (4096, 400) if full else (2048, 200)
    rng = np.random.RandomState(12345)
    table = Table(f"auto-vectorizer, n={n} x {reps} reps (ms)",
                  ["elem", "scalar (level 1)", "vector (level 2)", "speedup"])
    for elem, dt in [("float", np.float32), ("double", np.float64)]:
        bufs = [rng.rand(n).astype(dt) for _ in range(4)] + \
               [np.zeros(n, dt) for _ in range(4)]
        ms = []
        for level in (PIPELINE_CANON, PIPELINE_VEC):
            with pipeline_override(level):
                fn = terra(AUTOVEC_SRC.format(e=elem), env={}).compile("c")
            ms.append(best_of(lambda: fn(*bufs, n, reps), 7) * 1000)
        table.add(elem, ms[0], ms[1], f"{ms[0] / ms[1]:.2f}x")
    return [table]


def schedules(full=False):
    """Naive vs every tile-schedule point, per workload family.  The
    naive staging is the loop nest a programmer writes first and one gcc
    cannot rescue at -O3 (scalar float reductions, strided int8 loads,
    loop-carried stride-R accumulation); every point is bit-identical to
    it (tests/schedule/test_workloads.py)."""
    att_n, D = (384, 64) if full else (192, 64)
    dq_n, dq_m, dq_k = (256, 512, 256) if full else (128, 384, 192)
    sc_n, R = (16384, 64) if full else (8192, 64)
    rng = np.random.RandomState(1)
    q, k, v = (rng.rand(att_n, D).astype(np.float32) for _ in range(3))
    o = np.zeros((att_n, D), dtype=np.float32)
    a = rng.rand(dq_n, dq_k).astype(np.float32)
    b = rng.randint(-128, 128, size=(dq_k, dq_m)).astype(np.int8)
    c = np.zeros((dq_n, dq_m), dtype=np.float32)
    x = rng.rand(sc_n, R).astype(np.float32)
    out = np.zeros((sc_n, R), dtype=np.float32)

    def att(s):
        kern = attention.make_attention(D=D, schedule=s)
        return lambda: kern(att_n, q, k, v, o)

    def dq(s):
        kern = dequant.make_dequant_gemm(schedule=s)

        def call():
            c[:] = 0.0  # scheduled variants accumulate into caller-zeroed C
            kern(dq_n, dq_m, dq_k, a, b, 0.037, c)
        return call

    def sc(s):
        kern = scan.make_scan(R=R, schedule=s)
        return lambda: kern(sc_n, x, out)

    tables = []
    for fam, variant, points in [
            ("attention", att, attention.schedule_points(D)),
            ("dequant", dq, dequant.schedule_points()),
            ("scan", sc, scan.schedule_points(R))]:
        naive = best_of(variant(None), 5) * 1000
        table = Table(f"tile schedules — {fam}",
                      ["schedule", "ms", "speedup"])
        table.add("naive", naive, "1.00x")
        for point in points:
            t = best_of(variant(point), 5) * 1000
            table.add(point.key(), t, f"{naive / t:.2f}x")
        tables.append(table)
    return tables


QSORT_C = r"""
#include <stdlib.h>
static int cmp_double(const void *a, const void *b) {
    double x = *(const double *)a, y = *(const double *)b;
    return (x > y) - (x < y);
}
void qsort_double(double *data, long n) {
    qsort(data, n, sizeof(double), cmp_double);
}
"""


def sort(full=False):
    """Staged monomorphic sort vs libc's generic qsort: staging removes
    the per-comparison indirect call and byte copying (§6.1's
    "generative beats generic" on a different kernel)."""
    n = 1_000_000 if full else 200_000
    doubles = np.random.RandomState(0).randn(n)
    staged = Sort(T.float64)
    libc = compile_c(QSORT_C, {"qsort_double": (["ptr", "long"], "void")})

    def ms(sorter):  # every timed run sorts a fresh unsorted copy
        best = float("inf")
        for _ in range(3):
            data = doubles.copy()
            t0 = time.perf_counter()
            sorter(data)
            best = min(best, time.perf_counter() - t0)
        return best * 1000

    table = Table(f"sort, {n} doubles (ms)", ["sort", "ms"])
    table.add("staged Sort(float64)", ms(lambda d: staged(d, n)))
    table.add("libc qsort", ms(lambda d: libc.qsort_double(d, n)))
    table.add("numpy.sort", ms(np.sort))
    return [table]


def passes(full=False):
    """The mid-level pipeline must never emit a larger C unit than
    unoptimized lowering of the same blocked-GEMM tuner kernel."""
    def c_bytes():
        return len(make_gemm(NB=16, RM=2, RN=2, V=2,
                             fma=False).get_c_source())
    table = Table("emitted C, blocked GEMM NB=16 RM=2 RN=2 V=2",
                  ["pipeline", "bytes"])
    table.add("on (backend default)", c_bytes())
    with pipeline_override(PIPELINE_NONE):
        table.add("off (level 0)", c_bytes())
    return [table]


#: cold rounds per side of ``compile_pool``, the sides alternating
POOL_ROUNDS = 3


def compile_pool(full=False):
    """Cold-cache compile of six tuner candidates through a jobs=1 and a
    jobs=N buildd pool (N = min(4, cores); parity on one core): the best
    of ``POOL_ROUNDS`` cold rounds per side, so one slow round on a shared
    host decides nothing."""
    sources = [genkernel(NB, RM, RN, V, 0.0).get_c_source()
               for NB, RM, RN, V in [(16, 2, 1, 2), (16, 2, 2, 2),
                                     (16, 4, 1, 2), (32, 2, 2, 2),
                                     (32, 4, 1, 2), (32, 4, 2, 2)]]
    sides = (1, min(4, os.cpu_count() or 1))
    best = [float("inf")] * len(sides)
    with tempfile.TemporaryDirectory() as tmp:
        for r in range(POOL_ROUNDS):
            for i, jobs in enumerate(sides):
                svc = CompileService(jobs=jobs, cache=ArtifactCache(
                    root=os.path.join(tmp, f"cold{r}-{i}")))  # starts cold
                try:
                    t0 = time.perf_counter()
                    for fut in [svc.compile_async(src) for src in sources]:
                        fut.result()
                    best[i] = min(best[i], time.perf_counter() - t0)
                finally:
                    svc.shutdown()
    table = Table(f"buildd pool, {len(sources)} kernels, cold cache, best "
                  f"of {POOL_ROUNDS} alternating rounds", ["jobs", "seconds"])
    for jobs, seconds in zip(sides, best):
        table.add(jobs, seconds)
    return [table]


MODSUM = """
terra modsum(n : int64, d : int64, x : &int64) : int64
  var acc : int64 = 0
  for i = 0, n do
    acc = acc + x[i] % d
  end
  return acc
end
"""


#: the ``stage_cold`` string member (benchmarks/ledger/bundle.py axpy_src)
AXPY8 = """
terra axpy(n : int, a : double, x : &double, y : &double) : {}
  for i = 0, n do
    y[i] = a * x[i] + y[i] * 1.5
  end
end
"""

#: a series stops once it has run this long; later results read ">10 s"
TIERING_BUDGET_S = 10.0


@contextmanager
def cold_artifact_cache():
    """Compiles inside the block miss: a new buildd service over an empty
    artifact cache (which also holds no structural-memo record)."""
    import repro.buildd.service as service_mod
    saved = service_mod._service
    with tempfile.TemporaryDirectory() as tmp:
        service_mod._service = CompileService(
            cache=ArtifactCache(root=os.path.join(tmp, "cache")))
        try:
            yield
        finally:
            service_mod._service.shutdown()
            service_mod._service = saved


def time_to_results(make, call, policy, ks=(1, 10, 100)):
    """Seconds from ``make()`` (staging included, cold cache) to the k-th
    result of ``call(made)`` under ``policy``, for each k in ``ks``; None
    for a k the series did not reach within :data:`TIERING_BUDGET_S`."""
    reached = {}
    with cold_artifact_cache(), policy_override(policy):
        t0 = time.perf_counter()
        made = make()
        for k in range(1, ks[-1] + 1):
            call(made)
            elapsed = time.perf_counter() - t0
            if k in ks:
                reached[k] = elapsed
            if elapsed > TIERING_BUDGET_S:
                break
    return [reached.get(k) for k in ks]


def tiering(full=False):
    """Tiered (interp first, the tier-up staged at the 10th call, gcc in
    the background) against ``aot``: time to the 1st, 10th and 100th
    result from a cold cache on a divide-by-parameter reduction, the
    ``stage_cold`` string member and the Orion fluid step; then the warm
    call and tier 0's first call on the reduction."""
    D, small_n = 7, 2_000
    big_n = 2_000_000 if full else 200_000
    mod_n, fluid_n = (200_000, 32) if full else (20_000, 16)
    small = np.arange(small_n, dtype=np.int64)
    big = np.arange(big_n, dtype=np.int64)
    ints = np.arange(mod_n, dtype=np.int64)
    x8, y8 = np.ones(8), np.ones(8)
    state = initial_conditions(fluid_n)

    def fresh():
        return terra(MODSUM)

    def fluid():
        sim = make_orion_fluid(FluidParams(fluid_n))
        sim.set_state(*state)
        return sim

    kernels = [
        (f"modsum n={mod_n}", fresh, lambda fn: fn(mod_n, D, ints)),
        ("axpy n=8", lambda: terra(AXPY8), lambda fn: fn(8, 0.5, x8, y8)),
        (f"fluid step N={fluid_n}", fluid, lambda sim: sim.step())]
    terra(AXPY8)(8, 0.5, x8, y8)    # first use of C and interp: not timed
    with policy_override("interp"):
        terra(AXPY8)(8, 0.5, x8, y8)
    latency = Table("time to the k-th result from a cold cache (ms)",
                    ["kernel, policy", "1st", "10th", "100th"])
    for name, make, call in kernels:
        for policy in ("aot", TieredPolicy()):
            reached = time_to_results(make, call, policy)
            latency.add(f"{name}, {getattr(policy, 'name', policy)}",
                        *(">10 s" if s is None else s * 1000
                          for s in reached))

    def first_call(policy):
        fn = fresh()
        with policy_override(policy):
            t0 = time.perf_counter()
            fn(small_n, D, small)
            return fn, time.perf_counter() - t0

    _, first_interp = first_call("interp")
    tiered = TieredPolicy(threshold=3, sync=True)
    fn, first_tiered = first_call(tiered)
    with policy_override(tiered):
        fn(big_n, D, big)
        fn(big_n, D, big)  # third call: sync tier-up
        warm_tiered = best_of(lambda: fn(big_n, D, big), 7)
    fn_c = fresh()
    with policy_override("c"):
        warm_aot = best_of(lambda: fn_c(big_n, D, big), 7)
    table = Table(f"modsum calls at n={big_n} (ms)",
                  ["series", "ms", "vs AOT C"])
    for label, secs in [
            ("first call, pure interp", first_interp),
            ("first call, tiered (tier 0)", first_tiered),
            ("warm AOT C", warm_aot),
            ("warm tiered (tier 1)", warm_tiered)]:
        table.add(label, secs * 1000, f"{secs / warm_aot:.2f}x")
    return [latency, table]


#: ``parallel_fluid`` builds both sims afresh this many times, in turns
FLUID_ROUNDS = 3


def parallel_fluid(full=False):
    """The parallel(y) fluid schedule against its serial twin: speedup
    on a multicore host, bounded dispatch overhead without spare cores.
    Each side is its best over ``FLUID_ROUNDS`` rounds of new sims, the
    two sides' steps taking turns within a round, as ``compile_pool``
    compares its sides: one slow round on a shared host decides nothing."""
    N = 1024 if full else 512
    nt = max(2, min(4, os.cpu_count() or 1))
    state = initial_conditions(N)
    best = [float("inf")] * 2
    for _ in range(FLUID_ROUNDS):
        sims = [make_orion_fluid(FluidParams(N), vectorize=4,
                                 linebuffer=True, **par)
                for par in ({}, {"parallel": nt})]
        for sim in sims:
            sim.set_state(*state)
        best = [min(pair) for pair in zip(
            best, best_interleaved([sim.step for sim in sims], 5))]
    table = Table(f"fluid step at {N}², vectorized + line-buffered, best "
                  f"of {FLUID_ROUNDS} rounds of new sims",
                  ["workers", "ms/step"])
    for label, t in zip(("serial", nt), best):
        table.add(label, t * 1000)
    return [table]


def _chunked_load(sock, K, n, seconds):
    """K closed-loop connections, each sending its 1/K range of one
    ``saxpy(n)`` over resident buffers for ``seconds``; returns the sorted
    latencies and the failures (error responses, then wrong sums)."""
    ranges = [(i * n // K, (i + 1) * n // K) for i in range(K)]
    tenant = f"k{K}-n{n}"
    with ServeClient(socket_path=sock, tenant=tenant) as c:
        xs, ys = c.alloc("double", n), c.alloc("double", n)
        for start in range(0, n, 1 << 15):      # under the 1 MiB line cap
            count = min(1 << 15, n - start)
            c.write(xs, [1.0] * count, start)
            c.write(ys, [0.0] * count, start)
        args = [n, 1.0, {"buf": xs}, {"buf": ys}]
        lat = [[] for _ in ranges]
        failed = [0] * K
        barrier = threading.Barrier(K)

        def client(i):
            with ServeClient(socket_path=sock, tenant=tenant) as cc:
                cc.call(SAXPY_SOURCE, "saxpy", args, chunk=ranges[i])
                barrier.wait()
                deadline = time.perf_counter() + seconds
                while (t0 := time.perf_counter()) < deadline:
                    try:
                        cc.call(SAXPY_SOURCE, "saxpy", args, chunk=ranges[i])
                        lat[i].append(time.perf_counter() - t0)
                    except ServeError:
                        failed[i] += 1

        threads = [threading.Thread(target=client, args=(i,))
                   for i in range(K)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # y[j] counts the calls that covered j: ones added, exactly
        wrong = sum(c.read(ys, 1, at) != [float(len(done) + 1)]
                    for (lo, hi), done in zip(ranges, lat)
                    for at in (lo, hi - 1))
        c.free(xs)
        c.free(ys)
    return sorted(t for done in lat for t in done), sum(failed) + wrong


def serve_chunked(full=False):
    """Chunked requests against a real ``python -m repro.serve --workers
    4`` child: the traffic a batching layer would be for, from ranges the
    hand-off dwarfs (4 x 16 elements) to ranges worth a core (4 x 2**18).
    Clients are threads of this process."""
    seconds = 10.0 if full else 3.0
    table = Table(f"chunked serve requests, K closed-loop clients x 1/K of "
                  f"saxpy(n), {seconds:g} s each",
                  ["K x n", "req/s", "p50 ms", "p99 ms", "failed"])
    with tempfile.TemporaryDirectory() as tmp:
        sock = os.path.join(tmp, "s.sock")
        server = subprocess.Popen(
            [sys.executable, "-m", "repro.serve", "--socket", sock,
             "--workers", "4"], stdout=subprocess.DEVNULL,
            env={**os.environ, "PYTHONPATH": SRC})
        try:
            wait_until_ready(socket_path=sock, timeout=60.0)
            for K, n in [(4, 64), (4, 1 << 20), (8, 1 << 16)]:
                lat, failed = _chunked_load(sock, K, n, seconds)
                table.add(f"{K} x {n}", len(lat) / seconds,
                          lat[len(lat) // 2] * 1e3,
                          lat[len(lat) * 99 // 100] * 1e3, failed)
        finally:
            server.send_signal(signal.SIGINT)
            try:
                server.wait(timeout=10)
            except subprocess.TimeoutExpired:
                server.kill()
                server.wait()
    return [table]


EXPERIMENTS = {
    "fig6": fig6, "fluid": fig8_fluid, "fluid_parts": fluid_parts,
    "area": fig8_area,
    "pointwise": pointwise, "dispatch": dispatch, "fig9": fig9,
    "autovec": autovec, "schedules": schedules, "sort": sort,
    "passes": passes, "compile": compile_pool, "tiering": tiering,
    "parallel": parallel_fluid, "serve_chunked": serve_chunked,
}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--full", action="store_true",
                        help="paper-scale sizes")
    parser.add_argument("--only", choices=list(EXPERIMENTS),
                        help="run a single experiment")
    args = parser.parse_args()
    for name in [args.only] if args.only else EXPERIMENTS:
        for table in EXPERIMENTS[name](args.full):
            table.show()


if __name__ == "__main__":
    main()
