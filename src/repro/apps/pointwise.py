"""The point-wise image pipeline — paper §6.2's inlining demonstration.

    "we implemented a pipeline of four simple memory-bound point-wise
    image processing kernels (blacklevel offset, brightness, clamp, and
    invert).  In a traditional image processing library, these functions
    would likely be written separately so they could be composed in an
    arbitrary order.  In Orion, the schedule can be changed independently
    of the algorithm.  For example, we can choose to inline the four
    functions, reducing the accesses to main memory by a factor of 4 and
    resulting in a 3.8x speedup."

``build_pipeline(N, policy=...)`` compiles the same four-kernel pipeline
with every intermediate either materialized (the library-of-functions
structure) or inlined (one fused pass).
"""

from __future__ import annotations

import numpy as np

from ..orion import lang as L
from ..orion.compile import CompiledStencil, compile_pipeline
from ..schedule import Schedule, Vectorize

BLACKLEVEL = 0.05
BRIGHTNESS = 1.4


def build_pipeline(N: int, policy: str = L.MATERIALIZE,
                   vectorize: int = 0) -> CompiledStencil:
    f = L.image("f")
    blacklevel = L.stage(L.max_(f(0, 0) - BLACKLEVEL, 0.0), "blacklevel",
                         policy=policy)
    brightness = L.stage(blacklevel(0, 0) * BRIGHTNESS, "brightness",
                         policy=policy)
    clamped = L.stage(L.clamp(brightness(0, 0), 0.0, 1.0), "clamp",
                      policy=policy)
    inverted = 1.0 - clamped(0, 0)
    return compile_pipeline(inverted, N, tile_schedule=Schedule(
        [Vectorize("x", vectorize)] if vectorize else []))


def reference_numpy(image: np.ndarray) -> np.ndarray:
    x = np.maximum(image.astype(np.float32) - np.float32(BLACKLEVEL),
                   np.float32(0.0))
    x = x * np.float32(BRIGHTNESS)
    x = np.clip(x, np.float32(0.0), np.float32(1.0))
    return np.float32(1.0) - x
