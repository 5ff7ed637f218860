"""The native entry: a scalar signature's warm call from Python as C against
the CPython API (``repro.backend.c.native``).

A scalar handle's plan takes its signature's shape unit's compile ticket
at its tenth counted (untraced) call; the unit builds on buildd, and once
it has loaded its builtin replaces the plan as the handle's ``entry`` and
in the call slot.
What it refuses it vectorcalls the plan with, so every refusal keeps the
plan's outcome and message.  A failed build, or no ``Python.h``, leaves the
plan in place, counted once per shape.
"""

import gc
import math
import sys
import sysconfig
import threading
import time
import weakref
from types import BuiltinFunctionType

import numpy as np
import pytest

from repro import terra
from repro import trace
from repro.backend.c import native, runtime
from repro.buildd import ArtifactCache, CompileService, get_service
from repro.buildd.__main__ import main as buildd_main
from repro.errors import FFIError, TrapError
from repro.exec import policy_override
from repro.trace.metrics import registry
from tests.buildd.conftest import fake_cc_path, fake_toolchain  # noqa: F401
from tests.exec.callpath import native_entry
from tests.exec.conftest import cold_service, slow_cc  # noqa: F401

pytestmark = pytest.mark.usefixtures("cbackend")

ADD = "terra add(a : int, b : int) : int return a + b end"
DIV = "terra div(a : int, b : int) : int return a / b end"
SCALE = "terra scale(k : int8, x : double) : double return k * x end"


def is_native(call) -> bool:
    return isinstance(call, BuiltinFunctionType)


def unit_of(handle):
    """``handle``'s shape unit under the current service: its ``make``,
    the exception that stopped it, or None before its ticket and while it
    builds."""
    shape = native.shape(handle.type, handle.centry is not None)
    unit = runtime._SHAPE_UNITS.get(get_service(), {}).get(shape)
    if unit is None or not unit.done():
        return None
    try:
        return unit.result()
    except Exception as exc:
        return exc


def outcome(call, *args, **kwargs):
    try:
        result = call(*args, **kwargs)
    except (FFIError, TrapError, TypeError) as exc:
        return type(exc).__name__, str(exc)
    return type(result).__name__, result


def test_one_shape_unit_compile_per_shape_per_cache(cold_service,
                                                    swap_service, tmp_path):
    stats = get_service().stats
    add, sub = terra(ADD), terra(
        "terra sub(a : int, b : int) : int return a - b end")
    handles = [add.compile("c"), sub.compile("c")]
    assert stats.compiles == 2                  # the two units
    for handle in handles:
        assert native_entry(handle, 1, 2)
    assert stats.compiles == 3                  # ... and one shape unit
    assert handles[0].entry is not handles[1].entry
    again = terra(ADD).compile("c")             # a bind of the same shape
    assert native_entry(again, 1, 2)
    assert stats.compiles == 3                  # builds nothing
    swap_service(CompileService(                # another cache
        jobs=2, cache=ArtifactCache(root=str(tmp_path / "other"))))
    assert native_entry(terra(ADD).compile("c"), 1, 2)
    assert get_service().stats.compiles == 2    # unit + shape unit, there


def test_the_slot_and_the_handle_hold_a_builtin_named_after_the_function():
    fn = terra(ADD)
    with policy_override("c"):
        assert fn(1, 2) == 3
        handle = fn.dispatcher.handles["c"]
        plan = handle.entry
        assert fn.dispatcher.target is plan and not is_native(plan)
        assert native_entry(handle, 1, 2)
        assert is_native(handle.entry) and handle.entry.__name__ == "add"
        assert fn.dispatcher.target is handle.entry
        assert fn(20, 22) == 42 and handle(2 ** 32 + 1, 1) == 2
    with policy_override("c"):                  # a reset re-resolves to it
        assert fn(1, 1) == 2 and fn.dispatcher.target is handle.entry


def test_calls_never_wait_for_the_build(slow_cc, monkeypatch):
    fn = terra(ADD)
    handle = fn.compile("c")
    monkeypatch.setenv("FAKECC_DELAY", "2")     # holds the shape unit
    with policy_override("c"):
        for i in range(3 * runtime.WARM_CALLS):
            t0 = time.monotonic()
            assert fn(i, 1) == i + 1
            assert time.monotonic() - t0 < 1.0
        assert unit_of(handle) is None          # ... it builds still
        assert not is_native(handle.entry)      # the calls ran on the plan
        assert fn.dispatcher.target is handle.entry
        assert native_entry(handle, 1, 2)
        assert fn.dispatcher.target is handle.entry


class OnlyIndex:
    def __index__(self):
        return 300


def test_refusals_keep_the_plans_outcome_and_message():
    add, scale = terra(ADD).compile("c"), terra(SCALE).compile("c")
    assert native_entry(add, 1, 2) and native_entry(scale, 1, 2.0)
    checked = registry().get("exec.call.checked")
    for handle, args in [
            (add, (True, 2)), (add, (1, False)), (add, (np.int32(3), 1)),
            (add, (1, np.int64(2 ** 40))), (add, (OnlyIndex(), 1)),
            (add, (2.0, 1)), (add, (2.5, 1)), (add, ("1", 1)),
            (add, (None, 1)), (add, ()), (add, (1,)), (add, (1, 2, 3)),
            (scale, (1, True)), (scale, (1, np.float32(0.1))),
            (scale, (1, np.float64(2.5))), (scale, (OnlyIndex(), 2.0)),
            (scale, (1, OnlyIndex())), (scale, (1, 10 ** 400)),
            (scale, (1, -10 ** 400)), (scale, (300, math.inf)),
            (scale, (1.0, 2.0))]:
        plan = handle.entry.__self__[1]
        assert outcome(handle.entry, *args) == outcome(plan, *args), args
    for handle in (add, scale):
        plan = handle.entry.__self__[1]
        want = ("TypeError", f"{handle.func.name}() got an unexpected "
                "keyword argument 'b'")
        assert outcome(handle.entry, 1, b=2) == outcome(plan, 1, b=2) == want
        assert outcome(handle.entry, 1, 2, b=3) == want     # arity right
    assert outcome(scale.entry, 1, 10 ** 400) == (
        "FFIError", f"cannot convert {10 ** 400!r} to double")
    assert registry().get("exec.call.checked") > checked


def test_what_the_native_entry_takes_itself():
    """An exact ``int`` wraps at the parameter's width, as ``argtypes``
    wraps it; a float parameter takes an exact ``int`` or ``float``."""
    add, scale = terra(ADD).compile("c"), terra(SCALE).compile("c")
    assert native_entry(add, 1, 2) and native_entry(scale, 1, 2.0)
    checked = registry().get("exec.call.checked")
    assert add.entry(2 ** 64 + 5, -2 ** 70) == 5
    assert add.entry(2 ** 31 - 1, 1) == -2 ** 31
    assert scale.entry(300, 0.5) == 22.0        # (int8)300 == 44
    assert scale.entry(2, 2 ** 53 + 1) == 2.0 ** 54
    assert math.isnan(scale.entry(1, math.nan))
    assert registry().get("exec.call.checked") == checked


def test_tracing_on_runs_the_plan_and_is_traced():
    add = terra(ADD).compile("c")
    assert native_entry(add, 1, 2)
    trace.enable()
    try:
        trace.clear()
        assert add.entry(20, 22) == 42
        names = [span.name for span in trace.events()]
    finally:
        trace.disable()
        trace.clear()
    assert names == ["call:add"]                # the checked path's span
    assert runtime._ACTIVE.value == 0


def test_a_trap_has_the_same_text_on_eight_threads():
    div = terra(DIV).compile("c")
    assert div.centry is not None and native_entry(div, 7, 2)
    failures, barrier = [], threading.Barrier(8)

    def work(k):
        barrier.wait(30)
        for i in range(2000):
            try:
                if (i + k) % 3 == 0:
                    div.entry(i, 0)
                    failures.append((k, i, "no trap"))
                elif div.entry(6 * i, 3) != 2 * i:
                    failures.append((k, i, "wrong result"))
            except TrapError as exc:
                if (i + k) % 3 or str(exc) != "integer division by zero":
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
    plan = div.entry.__self__[1]
    assert outcome(div.entry, 7, 0) == outcome(plan, 7, 0) == (
        "TrapError", "integer division by zero")


def test_a_dropped_function_is_collected():
    """The entry's references (the plan, which holds the handle) sit in a
    tuple the collector sees, so the handle's cycle through its entry
    goes with the function."""
    fn = terra(ADD)
    with policy_override("c"):
        fn(1, 2)
        handle = fn.dispatcher.handles["c"]
        assert native_entry(handle, 1, 2) and fn(1, 2) == 3
    assert gc.is_tracked(handle.entry.__self__)
    refs = weakref.ref(fn), weakref.ref(handle)
    del fn, handle
    gc.collect()
    assert [ref() for ref in refs] == [None, None]


def test_a_function_dropped_while_its_unit_builds_is_collected(
        slow_cc, monkeypatch):
    fn = terra(ADD)
    handle = fn.compile("c")
    monkeypatch.setenv("FAKECC_DELAY", "1")     # holds the shape unit
    for i in range(runtime.WARM_CALLS):
        handle(i, 1)
    shape = native.shape(handle.type, False)
    refs = weakref.ref(fn), weakref.ref(handle)
    del fn, handle
    gc.collect()
    assert [ref() for ref in refs] == [None, None]
    get_service().drain()                       # it built, for nobody
    assert callable(runtime._SHAPE_UNITS[get_service()][shape].result())
    later = terra(ADD).compile("c")
    assert native_entry(later, 1, 2)


# -- failure: the plan stays, counted once per shape ---------------------------------

def two_of_a_shape():
    """``(add, its C handle, sub's C handle)``: two units, one shape."""
    add = terra(ADD)
    sub = terra("terra sub(a : int, b : int) : int return a - b end")
    return add, add.compile("c"), sub.compile("c")


def stays_on_the_plan(fn, handle, other):
    """Calls of ``fn`` well past the request, and of ``other``, of the same
    shape, are right and on the plan; the failure was counted once."""
    failed = registry().get("exec.entry.native_failed")
    with policy_override("c"):
        for i in range(5 * runtime.WARM_CALLS):
            assert fn(i, 1) == i + 1
    assert not native_entry(handle, 1, 2)       # its unit failed
    assert not is_native(handle.entry)
    assert fn.dispatcher.target is not handle.entry     # (reset on exit)
    for i in range(3 * runtime.WARM_CALLS):     # the same shape: no retry
        assert other(i, 1) == i - 1
    assert not is_native(other.entry)
    assert registry().get("exec.entry.native_failed") == failed + 1


def test_a_failed_build_leaves_the_plan(slow_cc, monkeypatch):
    fn, handle, other = two_of_a_shape()
    stats = get_service().stats
    compiles = stats.compiles
    monkeypatch.setenv("FAKECC_FAIL", "1")      # the compiler exits 1
    stays_on_the_plan(fn, handle, other)
    assert "induced failure" in str(unit_of(handle))
    assert stats.compiles == compiles
    assert stats.registry.get("buildd.failures") == 1
    assert buildd_main(["--gc"]) == 0 and buildd_main(["--stats"]) == 0


def test_no_python_headers_leaves_the_plan(cold_service, monkeypatch,
                                          tmp_path):
    fn, handle, other = two_of_a_shape()
    stats = get_service().stats
    monkeypatch.setattr(runtime, "_HEADERS", (
        sysconfig.get_config_var("SOABI"), str(tmp_path)))
    stays_on_the_plan(fn, handle, other)
    assert "Python.h" in str(unit_of(handle))
    assert stats.registry.get("buildd.failures") == 1
    assert buildd_main(["--gc"]) == 0 and buildd_main(["--stats"]) == 0


def test_the_unit_headers_are_sysconfigs():
    """The ABI tag and include dir come from ``sys`` (sysconfig's data
    holds the GIL for ms on the call that climbs); a layout where they are
    not sysconfig's fails here, not as a plan that never climbs."""
    assert runtime._HEADERS == (sysconfig.get_config_var("SOABI"),
                                sysconfig.get_config_var("INCLUDEPY"))



def test_a_make_that_raises_leaves_the_plan(cold_service, monkeypatch):
    """The unit loaded, but its ``make`` raised for this handle: counted
    once, and the handle keeps its plan."""
    def make(*args):
        raise MemoryError("no builtin")
    monkeypatch.setattr(runtime, "_load", lambda path: make)
    handle = terra(ADD).compile("c")
    failed = registry().get("exec.entry.native_failed")
    assert not native_entry(handle, 1, 2)
    assert handle(1, 2) == 3
    assert registry().get("exec.entry.native_failed") == failed + 1


def test_a_ticket_that_cannot_be_taken_leaves_the_plan(cold_service,
                                                       monkeypatch):
    """``compile_async`` raised on the crossing call (a service shut
    down): the call still returns, counted once, on its plan."""
    handle = terra(ADD).compile("c")

    def refused(*args, **kwargs):
        raise RuntimeError("cannot schedule new futures after shutdown")
    monkeypatch.setattr(get_service(), "compile_async", refused)
    failed = registry().get("exec.entry.native_failed")
    assert not native_entry(handle, 1, 2)
    assert handle(1, 2) == 3
    assert registry().get("exec.entry.native_failed") == failed + 1
