"""The 2-D real-time fluid simulation — paper §6.2 / Figure 8 (top).

    "We also implemented a simple real-time 2D fluid simulation based on
    an existing C implementation [Stam, GDC 2003].  We converted the
    solver from Gauss-Seidel to Gauss-Jacobi so that images are not
    modified in place and use a zero boundary condition. ... the fluid
    simulation that we ported included a semi-Lagrangian advection step,
    which is not a stencil computation.  In this case, we were able to
    allow the user to pass a Terra function to do the necessary
    computation, and easily integrate this code with generated Terra
    code."

Two implementations with identical numerics:

* :func:`make_c_fluid` — the hand-written C reference (compiled with the
  same gcc flags as generated Terra code);
* :func:`make_orion_fluid` — diffuse and project as Orion pipelines
  (schedulable: scalar / vectorized / line-buffered), advection as a plain
  Terra function interleaved with the generated stencil code.  Like the
  pipelines, advection is staged on its grid (``N``, ``W`` and ``P`` are
  constants in the generated code, as the C reference's ``#define``s are)
  and on the solver's schedule: ``Vectorize("x", V)`` vectorizes it too,
  and ``Parallel`` chunks its rows.

Both operate on velocity fields (u, v) and a density field d over an N×N
grid with zero boundaries, running Stam's step:
``diffuse(u) diffuse(v) → project → advect(u,v) → project →
diffuse(d) → advect(d)``.  The C reference advects u and v one after the
other; Orion advects them in one fused pass, since both trace back along
the same velocities, and the state stays bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import expr, float_, int_, pointer, quote_, symbol, terra, vector
from .. import select  # noqa: F401  (the advect quotes name it)
from ..bench.cbaseline import compile_c
from ..orion import lang as L
from ..orion.compile import compile_pipeline
from ..parallel import default_nthreads, parallel_for
from ..schedule import Parallel, Schedule, Vectorize

DIFFUSE_ITERS = 10
PROJECT_ITERS = 10


@dataclass
class FluidParams:
    N: int
    dt: float = 0.1
    diff: float = 0.0001
    visc: float = 0.0001
    diffuse_iters: int = DIFFUSE_ITERS
    project_iters: int = PROJECT_ITERS


# ===========================================================================
# Orion pipelines
# ===========================================================================

def _jacobi_chain(x0: L.Stage, a: float, iters: int,
                  linebuffer: bool) -> L.Stage:
    """``x_{i+1} = (x0 + a*(x_i(-1,0)+x_i(1,0)+x_i(0,-1)+x_i(0,1)))/(1+4a)``
    starting from x_0 = x0 — the paper's diffuse kernel (Figure 7)."""
    x = x0
    for i in range(iters):
        nxt = (x0 + a * (x(-1, 0) + x(1, 0) + x(0, -1) + x(0, 1))) / (1 + 4 * a)
        policy = None
        if linebuffer and i % 2 == 0 and i != iters - 1:
            # "line buffering pairs of the iterations of the diffuse and
            # project kernels" — every odd stage fuses into the next
            policy = L.LINEBUFFER
        x = L.stage(nxt, f"jac{i}", policy=policy, bounded=True)
    return x


def _advect_terra(N: int, W: int, P: int, fields: int = 1, V: int = 0):
    """Semi-Lagrangian advection as a plain Terra function (not a stencil):
    trace velocity backwards from every cell, bilinearly sample there.

    ``advect(dst0, .., src0, .., u, v, dt)`` advects ``fields`` fields
    along one (u, v): each back-trace feeds one sample per field.  It is
    staged on its grid — ``N``, ``W`` and ``P`` are ``int32`` constants, as
    the C reference's ``#define``s are — and on the solver's schedule:
    with ``V`` >= 2 a row runs ``V`` cells at a time on ``vector(float,
    V)``, then a scalar tail when ``N % V`` is not 0.  Every output element
    gets the C reference's scalar operation sequence in either form, so
    results are bit-identical.  Each output row is independent, so its
    ``chunked`` twin dispatches rows across workers."""
    fp = pointer(float_)
    dsts = [symbol(fp, f"dst{k}") for k in range(fields)]
    srcs = [symbol(fp, f"src{k}") for k in range(fields)]
    u, v, i, j = (symbol(fp, "u"), symbol(fp, "v"), symbol(int_, "i"),
                  symbol(int_, "j"))
    dt0 = symbol(float_, "dt0")

    # the cells (i, j .. j+width-1) of a row: one back-trace, then one
    # bilinear sample per (dst, src) pair.  The names the samples share
    # with the back-trace are symbols, because each quote resolves names in
    # its own lexical scope.  Width 1 is the C reference's loop body;
    # wider, the clamps are ``select``s, the cast is the defined vector
    # cast, and the four taps load lane by lane.  Built in this frame, not
    # in a nested function: a quote sees only its own frame's locals
    cells = {}
    for width in ((V, 1) if V >= 2 else (1,)):
        T = float_ if width == 1 else vector(float_, width)
        IT = int_ if width == 1 else vector(int_, width)
        idx, o = symbol(int_, "idx"), symbol(IT, "o")
        sx, sy = symbol(T, "sx"), symbol(T, "sy")
        if width == 1:
            back = quote_("""
              var [idx] = i * W + P + j
              var x = [float](j) - dt0 * u[idx]
              var y = [float](i) - dt0 * v[idx]
              if x < 0.0f then x = 0.0f end
              if x > [float](N) - 1.001f then x = [float](N) - 1.001f end
              if y < 0.0f then y = 0.0f end
              if y > [float](N) - 1.001f then y = [float](N) - 1.001f end
              var j0 = [int](x)
              var i0 = [int](y)
              var [sx] = x - [float](j0)
              var [sy] = y - [float](i0)
              var [o] = i0 * W + P + j0
            """)
        else:
            # float(j) + k is exactly float(j + k) on any grid below 2^24
            ramp = expr("vectorof(float, %s)"
                        % ", ".join(f"{k}.0f" for k in range(width)))
            back = quote_("""
              var [idx] = i * W + P + j
              var x = [float](j) + ramp - dt0 * @[&T](&u[idx])
              var y = [float](i) - dt0 * @[&T](&v[idx])
              var hi : T = [float](N) - 1.001f
              x = select(x < 0.0f, [T](0.0f), x)
              x = select(x > hi, hi, x)
              y = select(y < 0.0f, [T](0.0f), y)
              y = select(y > hi, hi, y)
              var j0 = [IT](x)
              var i0 = [IT](y)
              var [sx] = x - [T](j0)
              var [sy] = y - [T](i0)
              var [o] = i0 * W + P + j0
            """)
        samples = []
        for dst, src in zip(dsts, srcs):
            if width == 1:
                samples.append(quote_("""
                  var r0, r1 = src[o], src[o + 1]
                  var r2, r3 = src[o + W], src[o + W + 1]
                  dst[idx] = (1.0f - sy) * ((1.0f - sx) * r0 + sx * r1)
                           + sy * ((1.0f - sx) * r2 + sx * r3)
                """))
                continue
            r0, r1, r2, r3 = (symbol(T, f"r{k}") for k in range(4))
            lanes = [quote_("""
                       r0[k] = src[o[k]]
                       r1[k] = src[o[k] + 1]
                       r2[k] = src[o[k] + W]
                       r3[k] = src[o[k] + W + 1]
                     """) for k in range(width)]
            samples.append(quote_("""
              var [r0] : T, [r1] : T, [r2] : T, [r3] : T
              [lanes]
              @[&T](&dst[idx]) = (1.0f - sy) * ((1.0f - sx) * r0 + sx * r1)
                               + sy * ((1.0f - sx) * r2 + sx * r3)
            """))
        cells[width] = [back, *samples]

    if V >= 2:
        main = N - N % V
        vector_cells, tail_cells = cells[V], cells[1]
        row = quote_("""
          for [j] = 0, main, V do [vector_cells] end
          for [j] = main, N do [tail_cells] end
        """)
    else:
        scalar_cells = cells[1]
        row = quote_("for [j] = 0, N do [scalar_cells] end")
    return terra("""
    terra advect([dsts], [srcs], [u], [v], dt : float) : {}
      var [dt0] = dt * [float](N)
      for [i] = 0, N do [row] end
    end
    """)


class OrionFluid:
    """The Orion/Terra fluid solver with a schedulable stencil core."""

    def __init__(self, params: FluidParams, vectorize: int = 0,
                 linebuffer: bool = False, parallel=None):
        self.params = params
        N = params.N
        self.N = N
        p = params
        # effective worker count (``parallel``: None = serial, 0 = auto);
        # <= 1 compiles the exact serial solver (byte-identical generated
        # code, no chunked twins)
        self._nt = 0 if parallel is None else default_nthreads(parallel)
        directives = [Vectorize("x", vectorize)] if vectorize else []
        if self._nt > 1:
            directives.append(Parallel("y", self._nt))
        loops = Schedule(directives)

        # Orion's buffer layout (compile_pipeline) for stencils that read
        # one cell away, as every stage below does: P = 1
        self.P = 1
        self.W = self.P + N + self.P + max(vectorize, 1)
        # advection runs on the same schedule: both velocity fields in one
        # pass (each reads the same projected u, v), then density alone.
        # Staged first, so gcc builds it while the pipelines are staged
        # (in parallel, the kernels are their twins: rows [lo, hi) first)
        self.advect_uv, self.advect_d = (
            _advect_terra(N, self.W, self.P, fields, vectorize)
            for fields in (2, 1))
        if self._nt > 1:
            self.advect_uv = self.advect_uv.chunked
            self.advect_d = self.advect_d.chunked
        for fn in (self.advect_uv, self.advect_d):
            fn.compile_async()

        a_visc = p.dt * p.visc * N * N
        a_diff = p.dt * p.diff * N * N

        x0 = L.image("x0")
        self.diffuse_visc = compile_pipeline(
            _jacobi_chain(x0, a_visc, p.diffuse_iters, linebuffer), N,
            tile_schedule=loops)
        x0d = L.image("x0")
        self.diffuse_diff = compile_pipeline(
            _jacobi_chain(x0d, a_diff, p.diffuse_iters, linebuffer), N,
            tile_schedule=loops)

        # projection — ONE fused multi-output pipeline: divergence,
        # pressure Jacobi chain, and both gradient subtractions
        u_in, v_in = L.image("u"), L.image("v")
        h = 1.0 / N
        div = L.stage(
            -0.5 * h * (u_in(1, 0) - u_in(-1, 0) + v_in(0, 1) - v_in(0, -1)),
            "div", bounded=True)
        pstage = L.stage(div(0, 0) * 0.25, "p0", bounded=True)
        for i in range(p.project_iters - 1):
            nxt = (div(0, 0) + pstage(-1, 0) + pstage(1, 0)
                   + pstage(0, -1) + pstage(0, 1)) * 0.25
            policy = L.LINEBUFFER if (linebuffer and i % 2 == 0
                                      and i != p.project_iters - 2) else None
            pstage = L.stage(nxt, f"p{i+1}", policy=policy, bounded=True)
        u_out = u_in(0, 0) - 0.5 * N * (pstage(1, 0) - pstage(-1, 0))
        v_out = v_in(0, 0) - 0.5 * N * (pstage(0, 1) - pstage(0, -1))
        self.project_pipe = compile_pipeline([u_out, v_out], N,
                                             tile_schedule=loops)

        # every pipeline lays out its buffers as advection was staged for,
        # so all of them are interchangeable
        for pipe in (self.diffuse_visc, self.diffuse_diff, self.project_pipe):
            assert pipe.W == self.W and pipe.P == self.P

        z = lambda: np.zeros((N, self.W), dtype=np.float32)  # noqa: E731
        self.u, self.v, self.d = z(), z(), z()
        self._u1, self._v1, self._d1 = z(), z(), z()

    # -- state ------------------------------------------------------------------
    def set_state(self, u, v, d) -> None:
        P, N = self.P, self.N
        for buf, arr in ((self.u, u), (self.v, v), (self.d, d)):
            buf[:, :] = 0
            buf[:, P:P + N] = arr

    def get_state(self):
        P, N = self.P, self.N
        return (self.u[:, P:P + N].copy(), self.v[:, P:P + N].copy(),
                self.d[:, P:P + N].copy())

    # -- one solver step ------------------------------------------------------------
    def _advect(self, kernel, *buffers) -> None:
        dt = self.params.dt
        if self._nt > 1:
            # rows are independent: chunk the outer i loop across workers
            parallel_for(kernel, 0, self.N, *buffers, dt, nthreads=self._nt)
        else:
            kernel(*buffers, dt)

    def step(self) -> None:
        # diffuse velocities (CompiledStencil.__call__ dispatches worker
        # strips for parallel schedules, calls the Terra function for
        # serial ones)
        self.diffuse_visc(self._u1, self.u)
        self.diffuse_visc(self._v1, self.v)
        self.u, self._u1 = self._u1, self.u
        self.v, self._v1 = self._v1, self.v
        # project (one fused multi-output pipeline)
        self.project_pipe(self._u1, self._v1, self.u, self.v)
        self.u, self._u1 = self._u1, self.u
        self.v, self._v1 = self._v1, self.v
        # advect both velocities in one pass (semi-Lagrangian Terra
        # function): each field is sampled along the same projected u, v
        self._advect(self.advect_uv, self._u1, self._v1, self.u, self.v,
                     self.u, self.v)
        self.u, self._u1 = self._u1, self.u
        self.v, self._v1 = self._v1, self.v
        # final projection
        self.project_pipe(self._u1, self._v1, self.u, self.v)
        self.u, self._u1 = self._u1, self.u
        self.v, self._v1 = self._v1, self.v
        # density: diffuse then advect
        self.diffuse_diff(self._d1, self.d)
        self.d, self._d1 = self._d1, self.d
        self._advect(self.advect_d, self._d1, self.d, self.u, self.v)
        self.d, self._d1 = self._d1, self.d


def make_orion_fluid(params: FluidParams, vectorize: int = 0,
                     linebuffer: bool = False, parallel=None) -> OrionFluid:
    return OrionFluid(params, vectorize, linebuffer, parallel)


# ===========================================================================
# the hand-written C reference
# ===========================================================================

_C_SOURCE_TEMPLATE = r"""
#include <string.h>

/* Buffers are (N+2) x W with one zero row above/below and a zero column
 * left/right, so the zero boundary needs no branches in the inner loops —
 * the same technique the Orion-generated code uses. */
#define N {N}
#define P 1
#define W (P + N + P + 1)
#define ROWS (N + 2)
#define BYTES (ROWS * W * 4)
#define IX(i, j) (((i) + 1) * W + P + (j))

static void jacobi(float *x, const float *x0, float a, float c, int iters) {{
    /* Gauss-Jacobi with a zero boundary; ping-pongs two scratch buffers
     * (the SWAP idiom of the original Stam solver) */
    static float bufA[ROWS * W], bufB[ROWS * W];
    static int initialized = 0;
    if (!initialized) {{ memset(bufA, 0, BYTES); memset(bufB, 0, BYTES);
                         initialized = 1; }}
    const float *src = x0;
    float *dst = bufA;
    for (int k = 0; k < iters; k++) {{
        if (k == iters - 1) dst = x;  /* final iteration writes the output */
        for (int i = 0; i < N; i++) {{
            for (int j = 0; j < N; j++) {{
                dst[IX(i, j)] = (x0[IX(i, j)]
                    + a * (src[IX(i, j - 1)] + src[IX(i, j + 1)]
                         + src[IX(i - 1, j)] + src[IX(i + 1, j)])) / c;
            }}
        }}
        src = dst;
        dst = (dst == bufA) ? bufB : bufA;
    }}
    if (iters == 0) memcpy(x, x0, BYTES);
}}

static void project(float *u, float *v, float *p, float *div, int iters) {{
    float h = 1.0f / N;
    for (int i = 0; i < N; i++)
        for (int j = 0; j < N; j++)
            div[IX(i, j)] = -0.5f * h * (u[IX(i, j + 1)] - u[IX(i, j - 1)]
                                       + v[IX(i + 1, j)] - v[IX(i - 1, j)]);
    /* pressure Jacobi from p=0, ping-ponged like diffuse */
    static float bufA[ROWS * W], bufB[ROWS * W];
    static int initialized = 0;
    if (!initialized) {{ memset(bufA, 0, BYTES); memset(bufB, 0, BYTES);
                         initialized = 1; }}
    float *src = (iters == 1) ? p : bufA;
    for (int i = 0; i < N; i++)
        for (int j = 0; j < N; j++)
            src[IX(i, j)] = div[IX(i, j)] * 0.25f;
    float *dst = (src == bufA) ? bufB : bufA;
    for (int k = 0; k < iters - 1; k++) {{
        if (k == iters - 2) dst = p;
        for (int i = 0; i < N; i++)
            for (int j = 0; j < N; j++)
                dst[IX(i, j)] = (div[IX(i, j)]
                    + src[IX(i, j - 1)] + src[IX(i, j + 1)]
                    + src[IX(i - 1, j)] + src[IX(i + 1, j)]) * 0.25f;
        src = dst;
        dst = (dst == bufA) ? bufB : bufA;
    }}
    for (int i = 0; i < N; i++)
        for (int j = 0; j < N; j++) {{
            u[IX(i, j)] -= 0.5f * N * (p[IX(i, j + 1)] - p[IX(i, j - 1)]);
            v[IX(i, j)] -= 0.5f * N * (p[IX(i + 1, j)] - p[IX(i - 1, j)]);
        }}
}}

static void advect(float *dst, const float *src, const float *u,
                   const float *v, float dt) {{
    float dt0 = dt * N;
    for (int i = 0; i < N; i++)
        for (int j = 0; j < N; j++) {{
            float x = j - dt0 * u[IX(i, j)];
            float y = i - dt0 * v[IX(i, j)];
            if (x < 0.0f) x = 0.0f;
            if (x > N - 1.001f) x = N - 1.001f;
            if (y < 0.0f) y = 0.0f;
            if (y > N - 1.001f) y = N - 1.001f;
            int j0 = (int)x, i0 = (int)y;
            float sx = x - j0, sy = y - i0;
            float r0 = src[IX(i0, j0)], r1 = src[IX(i0, j0 + 1)];
            float r2 = src[IX(i0 + 1, j0)], r3 = src[IX(i0 + 1, j0 + 1)];
            dst[IX(i, j)] = (1.0f - sy) * ((1.0f - sx) * r0 + sx * r1)
                          + sy * ((1.0f - sx) * r2 + sx * r3);
        }}
}}

#define SWAP(a, b) do {{ float *_t = (a); (a) = (b); (b) = _t; }} while (0)

void fluid_step(float *u, float *v, float *d, float *u1, float *v1,
                float *d1, float *p, float *div, float dt, float diff,
                float visc, int diffuse_iters, int project_iters) {{
    /* pointer-swapping step in the style of the original Stam solver;
     * final results are copied back into (u, v, d) once at the end */
    float *cu = u, *cu1 = u1, *cv = v, *cv1 = v1, *cd = d, *cd1 = d1;
    float a_visc = dt * visc * N * N;
    float a_diff = dt * diff * N * N;
    jacobi(cu1, cu, a_visc, 1.0f + 4.0f * a_visc, diffuse_iters);
    jacobi(cv1, cv, a_visc, 1.0f + 4.0f * a_visc, diffuse_iters);
    SWAP(cu, cu1); SWAP(cv, cv1);
    project(cu, cv, p, div, project_iters);
    advect(cu1, cu, cu, cv, dt);
    advect(cv1, cv, cu, cv, dt);
    SWAP(cu, cu1); SWAP(cv, cv1);
    project(cu, cv, p, div, project_iters);
    jacobi(cd1, cd, a_diff, 1.0f + 4.0f * a_diff, diffuse_iters);
    SWAP(cd, cd1);
    advect(cd1, cd, cu, cv, dt);
    SWAP(cd, cd1);
    if (cu != u) memcpy(u, cu, BYTES);
    if (cv != v) memcpy(v, cv, BYTES);
    if (cd != d) memcpy(d, cd, BYTES);
}}
"""


class CFluid:
    """The hand-written C reference solver (paper's baseline)."""

    def __init__(self, params: FluidParams, flags: tuple[str, ...] = ()):
        self.params = params
        N = params.N
        self.N = N
        self.P = 1
        self.W = 1 + N + 1 + 1
        source = _C_SOURCE_TEMPLATE.format(N=N)
        self.lib = compile_c(source, {
            "fluid_step": (["ptr"] * 8 + ["float", "float", "float",
                                          "int", "int"], "void"),
        }, flags=flags)
        # (N+2) x W: one zero pad row above and below
        z = lambda: np.zeros((N + 2, self.W), dtype=np.float32)  # noqa: E731
        self.u, self.v, self.d = z(), z(), z()
        self._u1, self._v1, self._d1 = z(), z(), z()
        self._p, self._div = z(), z()

    def set_state(self, u, v, d) -> None:
        P, N = self.P, self.N
        for buf, arr in ((self.u, u), (self.v, v), (self.d, d)):
            buf[:, :] = 0
            buf[1:N + 1, P:P + N] = arr

    def get_state(self):
        P, N = self.P, self.N
        return (self.u[1:N + 1, P:P + N].copy(),
                self.v[1:N + 1, P:P + N].copy(),
                self.d[1:N + 1, P:P + N].copy())

    def step(self) -> None:
        p = self.params
        self.lib.fluid_step(self.u, self.v, self.d, self._u1, self._v1,
                            self._d1, self._p, self._div, p.dt, p.diff,
                            p.visc, p.diffuse_iters, p.project_iters)


def make_c_fluid(params: FluidParams, flags: tuple[str, ...] = ()) -> CFluid:
    return CFluid(params, flags)


def initial_conditions(N: int, seed: int = 0):
    """A smooth random initial state shared by correctness tests."""
    rng = np.random.RandomState(seed)
    yy, xx = np.mgrid[0:N, 0:N].astype(np.float32) / N
    u = (np.sin(2 * np.pi * yy) * 0.1 + rng.randn(N, N) * 0.001).astype(np.float32)
    v = (np.cos(2 * np.pi * xx) * 0.1 + rng.randn(N, N) * 0.001).astype(np.float32)
    d = np.exp(-((xx - 0.5) ** 2 + (yy - 0.5) ** 2) * 40).astype(np.float32)
    return u, v, d
