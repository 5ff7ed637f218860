"""The warm Python->Terra call path measured without a clock: how many
Python frames one call pushes.

``python -m tests.exec.callpath`` prints the ``call path:`` line of
``make check``; ``tests/exec/test_call_slot.py`` holds the two counts to
a budget.  The counts are taken under the ``c`` policy — the slot then
holds the bound C handle's ``entry``, as it does under ``aot`` wherever a
C compiler exists — so they do not move with ``REPRO_TERRA_BACKEND``; the
second line is the tiered policy's entry guard (:mod:`repro.exec.respec`)
on a hit and on a miss, which the ledger's ``exec.tiered_call_us`` cannot
tell apart (it times a miss on every call).
"""

import sys

import numpy as np

from repro import terra
from repro.exec import TieredPolicy, policy_override

ADD = "terra add(a : int, b : int) : int return a + b end"
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


def guard_frames() -> tuple[int, int]:
    """``(hit, miss)``: the frames of one warm ``add(i, 1)`` once tier-up
    has spliced the stable ``b = 1`` behind an entry guard, and of one
    ``add(i, 2)``, which the guard sends to the generic entry."""
    add = terra(ADD)
    with policy_override(TieredPolicy(threshold=3, sync=True)):
        for i in range(8):
            add(i, 1)
        assert add.dispatcher.tier.respec.consts == {1: 1}
        add(5, 2)       # (the generic entry makes its call plan here)
        return frames(lambda: add(5, 1)), frames(lambda: add(5, 2))


if __name__ == "__main__":
    print("call path: %d frames per warm scalar call, %d per pointer call "
          "(budget 2 / 2)" % warm_call_frames())
    print("call path: %d frames per tiered call on a guard hit, %d on a "
          "miss" % guard_frames())
