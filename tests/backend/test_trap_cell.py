"""The trap cell of a guarded C call is lent from a free list, not made
per call: a call owns the cell it popped until it puts it back, so nested
calls on one thread and calls on other threads never share one."""

import sys
import threading

import pytest

from repro import functype, int_, pycallback, terra
from repro.backend.c import runtime
from repro.errors import TrapError

DIV = "terra div(a : int, b : int) : int return a / b end"


@pytest.fixture
def div(cbackend):
    return terra(DIV).compile(cbackend)


def test_a_trap_then_a_clean_call_on_the_same_thread(div):
    del runtime._TRAP_CELLS[:]
    assert div(7, 2) == 3
    (cell,) = runtime._TRAP_CELLS
    for _ in range(3):
        with pytest.raises(TrapError, match="division by zero"):
            div(7, 0)
        assert runtime._TRAP_CELLS == [cell] and cell.value == 0
        assert div(9, 3) == 3               # the same cell, zeroed
    with pytest.raises(TrapError, match="division by zero"):
        div(2.0, 0)                         # the checked path borrows it too
    assert runtime._TRAP_CELLS == [cell] and cell.value == 0


def test_a_nested_call_gets_its_own_cell(cbackend):
    """A pycallback that calls a guarded function while the outer
    ``*_tentry`` is still running must not be handed the outer's cell."""
    inner = terra(DIV).compile(cbackend)
    seen = []

    def reenter(b):
        seen.append(list(runtime._TRAP_CELLS))
        try:
            return inner(12, b)
        except TrapError:
            return -1

    cb = pycallback(functype([int_], int_), reenter)
    outer = terra("terra outer(b : int, c : int) : int return cb(b) / c end",
                  env={"cb": cb}).compile(cbackend)
    del runtime._TRAP_CELLS[:]
    assert inner(1, 1) == 1                 # one cell at rest
    (first,) = runtime._TRAP_CELLS
    assert outer(3, 2) == 2                 # clean inside clean
    assert seen.pop() == []                 # ... the outer call held `first`
    assert len(runtime._TRAP_CELLS) == 2 and first in runtime._TRAP_CELLS
    assert outer(0, 1) == -1                # a trap inside, caught inside
    with pytest.raises(TrapError, match="division by zero"):
        outer(3, 0)                         # clean inside, the outer traps
    with pytest.raises(TrapError, match="division by zero"):
        outer(0, 0)                         # both
    assert outer(4, 1) == 3
    assert len(runtime._TRAP_CELLS) == 2    # by depth: no cell per call
    assert [cell.value for cell in runtime._TRAP_CELLS] == [0, 0]


def test_threads_see_only_their_own_traps(div):
    clean = terra("terra half(a : int) : int return a / 2 end").compile("c")
    failures = []
    barrier = threading.Barrier(8)

    def work(k):
        barrier.wait(30)
        for i in range(3000):
            try:
                if (i + k) % 3 == 0:
                    div(i, 0)
                    failures.append((k, i, "no trap"))
                elif (div(6 * i, 3), clean(2 * i)) != (2 * i, i):
                    failures.append((k, i, "wrong result"))
            except TrapError as exc:
                if (i + k) % 3 or "division by zero" not in str(exc):
                    failures.append((k, i, f"stray trap: {exc}"))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert failures == []
    assert len(runtime._TRAP_CELLS) <= 8 + 2
    assert not any(cell.value for cell in runtime._TRAP_CELLS)
