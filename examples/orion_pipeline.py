"""Orion point-wise pipeline — schedules change performance, not results.

The paper (§6.2): four memory-bound point-wise kernels (blacklevel,
brightness, clamp, invert).  Materializing each stage models a library of
separately-applied functions; inlining fuses them into one pass over the
image ("reducing the accesses to main memory by a factor of 4 and
resulting in a 3.8x speedup").

Run:  python examples/orion_pipeline.py [N]
"""

import sys
import time

import numpy as np

from repro.apps.pointwise import build_pipeline, reference_numpy
from repro.bench.harness import Table
from repro.orion import lang as L

N = int(sys.argv[1]) if len(sys.argv) > 1 else 2048
img = np.random.RandomState(0).rand(N, N).astype(np.float32)


def best_time(pipe, tries=5):
    src = pipe.pad(img)
    out = pipe.alloc_out()
    pipe(out, src)
    times = []
    for _ in range(tries):
        t0 = time.perf_counter()
        pipe(out, src)
        times.append(time.perf_counter() - t0)
    return min(times) * 1000


rows = []
for policy, label in [(L.MATERIALIZE, "materialize every stage"),
                      (L.LINEBUFFER, "line-buffer intermediates"),
                      (L.INLINE, "inline everything")]:
    pipe = build_pipeline(N, policy=policy)
    rows.append((label, best_time(pipe)))
pipe_v = build_pipeline(N, policy=L.INLINE, vectorize=8)
rows.append((f"inline + {pipe_v.tile_schedule.key()}", best_time(pipe_v)))

base = rows[0][1]
table = Table(f"4-kernel point-wise pipeline at {N}x{N} (paper §6.2)",
              ["schedule", "ms/frame", "speedup"])
for label, t in rows:
    table.add(label, t, f"{base / t:.2f}x")
table.show()

ref = reference_numpy(img)
for policy in (L.MATERIALIZE, L.INLINE, L.LINEBUFFER):
    out = build_pipeline(N, policy=policy).run(img)
    assert np.allclose(out, ref, atol=1e-6)
print("\nall schedules produce identical images.")
