"""The separable 5×5 area filter — paper §6.2 / Figure 8 (bottom).

    "The area filter is a common image processing operation that averages
    the pixels in a 5x5 window.  Area filtering is separable, so it is
    normally implemented as a 1-D area filter first in Y then in X."

Orion expresses it as a two-stage pipeline (Y pass then X pass); the
schedule then chooses whether the Y pass is materialized (the C
reference's structure), vectorized, or line-buffered into the X pass.
"""

from __future__ import annotations

import numpy as np

from ..bench.cbaseline import compile_c
from ..orion import lang as L
from ..orion.compile import CompiledStencil, compile_pipeline
from ..schedule import Schedule, Vectorize


def build_area_filter(N: int, vectorize: int = 0,
                      linebuffer: bool = False) -> CompiledStencil:
    f = L.image("f")
    ypass = L.stage(
        (f(0, -2) + f(0, -1) + f(0, 0) + f(0, 1) + f(0, 2)) / 5.0, "ypass",
        policy=L.LINEBUFFER if linebuffer else None)
    out = (ypass(-2, 0) + ypass(-1, 0) + ypass(0, 0)
           + ypass(1, 0) + ypass(2, 0)) / 5.0
    return compile_pipeline(out, N, tile_schedule=Schedule(
        [Vectorize("x", vectorize)] if vectorize else []))


_C_SOURCE = r"""
#include <string.h>

#define N {N}
#define P 2
#define W (P + N + P + 1)
#define ROWS (N + 4)
#define IX(i, j) (((i) + 2) * W + P + (j))

void area_filter(const float *src, float *dst) {{
    static float tmp[ROWS * W];
    static int initialized = 0;
    if (!initialized) {{ memset(tmp, 0, sizeof tmp); initialized = 1; }}
    /* Y pass */
    for (int i = 0; i < N; i++)
        for (int j = 0; j < N; j++)
            tmp[IX(i, j)] = (src[IX(i - 2, j)] + src[IX(i - 1, j)]
                           + src[IX(i, j)] + src[IX(i + 1, j)]
                           + src[IX(i + 2, j)]) / 5.0f;
    /* X pass */
    for (int i = 0; i < N; i++)
        for (int j = 0; j < N; j++)
            dst[IX(i, j)] = (tmp[IX(i, j - 2)] + tmp[IX(i, j - 1)]
                           + tmp[IX(i, j)] + tmp[IX(i, j + 1)]
                           + tmp[IX(i, j + 2)]) / 5.0f;
}}
"""


class CAreaFilter:
    """The hand-written C baseline: two materialized passes over padded
    branch-free buffers ((N+4) rows, zero boundary)."""

    def __init__(self, N: int, flags: tuple[str, ...] = ()):
        self.N = N
        self.P = 2
        self.W = 2 + N + 2 + 1
        self.lib = compile_c(_C_SOURCE.format(N=N),
                             {"area_filter": (["ptr", "ptr"], "void")},
                             flags=flags)

    def pad(self, array: np.ndarray) -> np.ndarray:
        N, P, W = self.N, self.P, self.W
        buf = np.zeros((N + 4, W), dtype=np.float32)
        buf[2:2 + N, P:P + N] = array
        return buf

    def alloc_out(self) -> np.ndarray:
        return np.zeros((self.N + 4, self.W), dtype=np.float32)

    def unpad(self, buf: np.ndarray) -> np.ndarray:
        N, P = self.N, self.P
        return buf[2:2 + N, P:P + N].copy()

    def run(self, image: np.ndarray) -> np.ndarray:
        src = self.pad(np.asarray(image, dtype=np.float32))
        dst = self.alloc_out()
        self.lib.area_filter(src, dst)
        return self.unpad(dst)

    def __call__(self, src_padded, dst_padded) -> None:
        self.lib.area_filter(src_padded, dst_padded)


def reference_numpy(image: np.ndarray) -> np.ndarray:
    """NumPy reference with zero boundary, for correctness checks."""
    N = image.shape[0]
    padded = np.zeros((N + 4, N + 4), dtype=np.float64)
    padded[2:-2, 2:-2] = image
    ypass = sum(padded[2 + dy:2 + dy + N, :] for dy in (-2, -1, 0, 1, 2)) / 5.0
    out = sum(ypass[:, 2 + dx:2 + dx + N] for dx in (-2, -1, 0, 1, 2)) / 5.0
    return out.astype(np.float32)
