"""The warm Python->Terra call path measured without a clock: how many
Python frames one call pushes.

``python -m tests.exec.callpath`` prints the ``call path:`` lines of
``make check``; ``tests/exec/test_call_slot.py`` holds the counts to a
budget.  The counts are taken under the ``c`` policy — the slot then
holds the bound C handle's ``entry``, as it does under ``aot`` wherever a
C compiler exists — so they do not move with ``REPRO_TERRA_BACKEND``; the
second line is a warm call of a unit with trappable operations; the third
is a warm call under the tiered policy at tier 1, where the slot holds that
same ``entry``.  A scalar function's warm call is its native entry once its
plan's tenth counted call has taken the shape unit's ticket and the unit
has loaded (:func:`native_entry` waits for that); each line says which
entry ran.
"""

import sys
from types import BuiltinFunctionType

import numpy as np

from repro import terra
from repro.backend.c import runtime
from repro.buildd import get_service
from repro.errors import TrapError
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


def native_entry(handle, *args) -> bool:
    """Call the C ``handle`` (its ``entry``) with ``args`` until its plan
    has taken its shape unit's ticket, wait until every build so far and
    its install are done (``drain``), and say whether the handle's entry
    is now the native one (False: not a scalar signature, or its unit
    failed).  A trap a call raises is its outcome: it counts."""
    for _ in range(runtime.WARM_CALLS):
        try:
            handle.entry(*args)
        except TrapError:
            pass
    get_service().drain()
    return isinstance(handle.entry, BuiltinFunctionType)


def warm_call_frames() -> tuple[int, int, str]:
    """``(scalar, pointer, entry)``: the frames of one warm ``add(1, 2)``
    and one warm ``axpy(8, a, x, y)``, each counted with the lambda that
    makes it, and which entry the scalar call ran."""
    add, axpy = terra(ADD), terra(AXPY)
    x, y = np.ones(8), np.ones(8)
    with policy_override("c"):
        add(1, 2)
        axpy(8, 0.5, x, y)
        entry = "native" if native_entry(add.compile("c"), 1, 2) else "plan"
        return (frames(lambda: add(1, 2)),
                frames(lambda: axpy(8, 0.5, x, y)), entry)


def guarded_frames() -> tuple[int, str]:
    """``(frames, entry)`` of one warm ``div(7, 2)`` (a ``*_tentry``
    unit), counted with the lambda that makes it."""
    div = terra(DIV)
    with policy_override("c"):
        div(7, 2)
        entry = "native" if native_entry(div.compile("c"), 7, 2) else "plan"
        return frames(lambda: div(7, 2)), entry


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
    scalar, pointer, entry = warm_call_frames()
    print(f"call path: {scalar} frames per warm scalar call ({entry} entry), "
          f"{pointer} per pointer call (budget 1 / 2)")
    print("call path: %d frames per warm guarded call (%s entry; budget 1)"
          % guarded_frames())
    print("call path: %d frames per warm tiered call at tier 1 (budget 2)"
          % tiered_frames())
