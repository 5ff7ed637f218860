"""Typed trees are read-only, and a pipeline level is a pure function of
them — the twin of ``tests/core/test_sast.py::
test_specialized_trees_are_never_written`` one stage down.

A ``TypedFunction``'s own ``body`` is set by the typechecker, rewritten by
the schedule pass before any level exists, and by nothing else: every
level is a clone run through that level's passes.  So no request — in any
order, through any door — may change a tree once it is built, and what a
level holds may not depend on which levels were asked for before it.
"""

import itertools

import numpy as np

from repro import terra
from repro.core.typechecker import TypeChecker
from repro.exec import TieredPolicy, policy_override
from repro.passes import pipeline_override
from repro.passes.tileschedule import SchedulePass
from repro.schedule import Block, Schedule, Vectorize, apply

from tests.core.test_sast import snapshot
from tests.core.test_spec_memo import GEMM_POOL
from tests.frontend.kernels import PAIRS
from tests.frontend.test_parity import normalize_ir

LEVELS = (0, 1, 2)
ORDERS = list(itertools.permutations(LEVELS))

SAXPY = """
terra saxpy(n : int64, a : float, x : &float, y : &float) : {}
  for i = 0, n do
    y[i] = a * x[i] + y[i]
  end
end
"""


def corpus():
    """``(name, make)`` per member; ``make()`` stages it afresh and returns
    its entry function."""
    from repro.autotune.genkernel import genkernel
    members = [(f"genkernel{cfg}", lambda cfg=cfg: genkernel(*cfg, 1.5))
               for cfg in GEMM_POOL]
    for name, factory in PAIRS:
        members += [(f"{name}[{twin}]", lambda f=factory, t=twin: f()[t])
                    for twin in (0, 1)]
    members.append(("scheduled", lambda: apply(
        terra(SAXPY, env={}), Schedule([Block("i", 8)])).fn))
    members.append(("orion", lambda: orion_pipeline().fn))
    return members


def orion_pipeline():
    """A blur staged from the pipeline alone: every staging prints
    alike."""
    from repro.orion import lang as L
    from repro.orion.compile import compile_pipeline
    f = L.image("f")
    blur = L.stage((f(-1, 0) + f(0, 0) + f(1, 0)) / 3.0, "blur")
    return compile_pipeline(blur, 16,
                            tile_schedule=Schedule([Vectorize("x", 4)]))


def request(fn, order):
    """Ask for ``fn``'s levels in ``order`` through every door — the IR
    printer, C emission, an interpreter compile — and return what each
    level read: ``{level: (IR text, C bytes)}``."""
    got = {}
    for level in order:
        with pipeline_override(level):
            fn.compile("interp")        # links at the first level asked for
            got[level] = (normalize_ir(fn.get_optimized_ir(level)),
                          fn.get_c_source())
    return got


def test_typed_trees_are_never_written(monkeypatch):
    typeds = {}     # TypedFunction -> image of its body once it is built
    typecheck, lower = TypeChecker.run, SchedulePass.run

    def recording_typecheck(self):
        typed = typecheck(self)
        typeds[typed] = snapshot(typed.body)
        return typed

    def recording_schedule(self, typed):
        changed = lower(self, typed)
        typeds[typed] = snapshot(typed.body)    # its one other writer
        return changed

    monkeypatch.setattr(TypeChecker, "run", recording_typecheck)
    monkeypatch.setattr(SchedulePass, "run", recording_schedule)

    for name, make in corpus():
        fresh = {level: request(make(), (level,))[level] for level in LEVELS}
        for order in ORDERS:    # three levels: every member in all six
            assert request(make(), order) == fresh, (name, order)

    pipe = orion_pipeline()
    request(pipe.fn, (2, 0, 1))
    image = np.arange(256, dtype=np.float32).reshape(16, 16)
    assert np.allclose(pipe.run(image)[1:-1, 1:-1],
                       ((image[:, :-2] + image[:, 1:-1] + image[:, 2:])
                        / 3.0)[1:-1])

    hot = terra("""
    terra hot(n : int64, d : int64) : int64
      var acc : int64 = 0
      for i = 0, n do acc = acc + i % d end
      return acc
    end
    """, env={})
    with policy_override(TieredPolicy(threshold=3, sync=True)):
        assert [hot(n, 7) for n in range(10, 16)] == \
            [sum(i % 7 for i in range(n)) for n in range(10, 16)]
    request(hot, (1, 2, 0))

    assert len(typeds) > 350
    written = [typed.name for typed, image in typeds.items()
               if snapshot(typed.body) != image]
    assert not written
