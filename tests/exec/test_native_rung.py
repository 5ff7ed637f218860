"""The native rung of the warm-up ladder: a scalar plan's tenth counted call
takes its shape unit's compile ticket, and the unit's builtin goes into
the slot through the installer the tier-up uses.  The rung is not a tier:
``tier_info()`` says whether C is bound, and a traced call never counts."""

import subprocess
import sys
from types import BuiltinFunctionType

from repro import terra, trace
from repro.backend.c import runtime
from repro.buildd import get_service
from repro.exec import TieredPolicy, policy_override
from repro.trace.metrics import registry
from tests.exec.callpath import native_entry

ADD = "terra add(a : int, b : int) : int return a + b end"


def is_native(call) -> bool:
    return isinstance(call, BuiltinFunctionType)


def test_the_native_rung_leaves_tier_info_as_it_was(cbackend):
    """The ledger probe's sequence, then ten calls more."""
    add = terra(ADD)
    with policy_override(TieredPolicy(threshold=3, sync=True)):
        for i in range(8):
            assert add(i, 1) == i + 1
        info = add.dispatcher.tier_info()
        assert info["tier"] == 1
        for i in range(10):
            assert add(i, 1) == i + 1
        assert is_native(add.dispatcher.target)
        assert add.dispatcher.target is add.dispatcher.handles["c"].entry
        assert add.dispatcher.tier_info() == info


def test_traced_calls_do_not_climb(cold_service, cbackend):
    handle = terra(ADD).compile("c")
    stats = get_service().stats
    compiles, native = stats.compiles, registry().get("exec.entry.native")
    trace.enable()
    try:
        for i in range(3 * runtime.WARM_CALLS):
            assert handle(i, 1) == i + 1
    finally:
        trace.disable()
        trace.clear()
    get_service().drain()
    assert stats.compiles == compiles               # no shape unit
    assert registry().get("exec.entry.native") == native
    assert not is_native(handle.entry)
    assert native_entry(handle, 1, 2)               # ten untraced calls
    assert stats.compiles == compiles + 1
    assert registry().get("exec.entry.native") == native + 1


def test_a_sync_policy_installs_on_the_crossing_call(cold_service, cbackend):
    """Under ``sync`` the call that crosses the native rung joins the
    shape unit's ticket: it returns with the builtin in the slot, and
    nothing is left to wait for."""
    add = terra(ADD)
    with policy_override(TieredPolicy(threshold=1, sync=True)):
        for i in range(runtime.WARM_CALLS - 1):
            assert add(i, 1) == i + 1
        handle = add.dispatcher.handles["c"]
        assert not is_native(add.dispatcher.target)
        assert add(2, 3) == 5                       # the tenth plan call
        assert is_native(handle.entry)
        assert add.dispatcher.target is handle.entry


def test_importing_the_c_runtime_starts_no_thread(cbackend):
    code = ("import threading; before = threading.active_count(); "
            "import repro.backend.c.runtime; "
            "print(threading.active_count() - before)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "0"
