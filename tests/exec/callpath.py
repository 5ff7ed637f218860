"""The warm Python->Terra call path measured without a clock: how many
Python frames one call pushes.

``python -m tests.exec.callpath`` prints the ``call path:`` lines of
``make check``; ``tests/exec/test_call_slot.py`` holds the counts to a
budget.  The counts are taken under the ``c`` policy — the slot then
holds the bound C handle's ``entry``, as it does under ``aot`` wherever a
C compiler exists — so they do not move with ``REPRO_TERRA_BACKEND``; the
second line is a warm call of a unit with trappable operations, whose
plan lends the trap cell in its own frame; the third is a warm call under
the tiered policy at tier 1, where the slot holds that same ``entry``.
"""

import sys

import numpy as np

from repro import terra
from repro.exec import TieredPolicy, policy_override

ADD = "terra add(a : int, b : int) : int return a + b end"
DIV = "terra div(a : int, b : int) : int return a / b end"
AXPY = """
terra axpy(n : int, a : double, x : &double, y : &double) : {}
  for i = 0, n do y[i] = a * x[i] + y[i] end
end
"""


def frames(call) -> int:
    """Python-level ``call`` events (``sys.setprofile``) of one ``call()``,
    its own frame included."""
    count = 0

    def probe(frame, event, arg):
        nonlocal count
        if event == "call":
            count += 1

    sys.setprofile(probe)
    try:
        call()
    finally:
        sys.setprofile(None)
    return count


def warm_call_frames() -> tuple[int, int]:
    """``(scalar, pointer)``: the frames of one warm ``add(1, 2)`` and one
    warm ``axpy(8, a, x, y)``, each counted with the lambda that makes it."""
    add, axpy = terra(ADD), terra(AXPY)
    x, y = np.ones(8), np.ones(8)
    with policy_override("c"):
        add(1, 2)
        axpy(8, 0.5, x, y)
        return (frames(lambda: add(1, 2)),
                frames(lambda: axpy(8, 0.5, x, y)))


def guarded_frames() -> int:
    """The frames of one warm ``div(7, 2)`` (a ``*_tentry`` unit),
    counted with the lambda that makes it."""
    div = terra(DIV)
    with policy_override("c"):
        div(7, 2)
        return frames(lambda: div(7, 2))


def tiered_frames() -> int:
    """The frames of one warm ``add(5, 1)`` once the tiered policy has
    tiered ``add`` up, counted with the lambda that makes it."""
    add = terra(ADD)
    with policy_override(TieredPolicy(threshold=3, sync=True)):
        for i in range(8):
            add(i, 1)
        assert add.dispatcher.tier.tier == 1
        return frames(lambda: add(5, 1))


if __name__ == "__main__":
    print("call path: %d frames per warm scalar call, %d per pointer call "
          "(budget 2 / 2)" % warm_call_frames())
    print("call path: %d frames per warm guarded call (budget 2)"
          % guarded_frames())
    print("call path: %d frames per warm tiered call at tier 1 (budget 2)"
          % tiered_frames())
