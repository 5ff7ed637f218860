"""Tiered-policy behavior tests, centered on the correctness contract:
whatever tier a call lands on — interp tier 0, generic C, respecialized
variant, or a guard-miss deoptimization — the observable result is
bit-identical to the reference interpreter, traps included."""

import pytest

from repro import terra
from repro.errors import TrapError
from repro.exec import TieredPolicy, policy_override
from repro.trace.metrics import registry

ADD = """
terra add(a : int32, b : int32) : int32
  return a + b
end
"""

DIV = """
terra div(a : int32, b : int32) : int32
  return a / b
end
"""

FMA = """
terra fma(x : double, m : int32, c : int32) : double
  return x * [double](m) + [double](c)
end
"""


def _fresh(src):
    return terra(src)


def test_tier_up_exactly_at_threshold(cbackend):
    fn = _fresh(ADD)
    with policy_override(TieredPolicy(threshold=3, sync=True)):
        for i in range(1, 6):
            assert fn(i, 10) == i + 10
            info = fn.dispatcher.tier_info()
            assert info["tier"] == (0 if i < 3 else 1), f"call {i}"
    # the counter stops at the threshold-crossing call
    assert fn.dispatcher.tier_info()["calls"] == 3


def test_results_bit_identical_across_the_transition(cbackend):
    fn = _fresh(FMA)
    ref = _fresh(FMA)
    argsets = [(0.1, 3, -7)] * 4 + [(-0.0, 3, -7), (1e300, 3, -7)]
    with policy_override("interp"):
        expected = [ref(*a) for a in argsets]
    with policy_override(TieredPolicy(threshold=2, sync=True)):
        got = [fn(*a) for a in argsets]
    assert [g.hex() for g in got] == [e.hex() for e in expected]
    assert fn.dispatcher.tier_info()["tier"] == 1


def test_respecialization_hit_then_guarded_deopt(cbackend):
    fn = _fresh(ADD)
    with policy_override(TieredPolicy(threshold=2, sync=True)):
        assert fn(40, 2) == 42
        assert fn(40, 2) == 42          # crosses the threshold, respecs
        info = fn.dispatcher.tier_info()
        assert info["tier"] == 1 and info["respecialized"]
        st = fn.dispatcher.tier
        assert st.respec.consts == {0: 40, 1: 2}
        assert fn(40, 2) == 42          # guard hit -> specialized entry
        assert st.respec.hits >= 1
        before = registry().get("exec.deopt")
        assert fn(1, 2) == 3            # guard miss -> generic entry
        assert fn.dispatcher.tier_info()["deopts"] == 1
        assert registry().get("exec.deopt") == before + 1


def test_trap_parity_at_every_tier(cbackend):
    """The trap cases: tier-0 interp, the respecialized variant's guard
    miss, and the generic C entry must all trap with the identical
    message the reference interpreter produces."""
    ref = _fresh(DIV)
    with policy_override("interp"):
        with pytest.raises(TrapError) as ref_exc:
            ref(100, 0)
    fn = _fresh(DIV)
    with policy_override(TieredPolicy(threshold=3, sync=True)):
        # a trap at tier 0 (interpreted)
        with pytest.raises(TrapError) as t0:
            fn(100, 0)
        assert str(t0.value) == str(ref_exc.value)
        assert fn(100, 5) == 20
        assert fn(100, 5) == 20         # tier-up; b profiled as varying/5
        assert fn.dispatcher.tier_info()["tier"] == 1
        # a trap at tier 1: guard miss (or no respec) -> generic C entry
        with pytest.raises(TrapError) as t1:
            fn(100, 0)
        assert str(t1.value) == str(ref_exc.value)
        assert fn(100, 5) == 20         # the pool survives the trap


def test_respec_disabled_by_knob(cbackend):
    fn = _fresh(ADD)
    with policy_override(TieredPolicy(threshold=2, sync=True,
                                      respec=False)):
        for _ in range(3):
            assert fn(20, 22) == 42
        info = fn.dispatcher.tier_info()
        assert info["tier"] == 1 and not info["respecialized"]
        assert fn.dispatcher.tier.respec is None


def test_background_tier_up_eventually_lands(slow_cc, monkeypatch):
    monkeypatch.setenv("FAKECC_DELAY", "0.2")   # gcc is still running ...
    fn = _fresh(ADD)
    import time
    with policy_override(TieredPolicy(threshold=2, sync=False)):
        assert fn(21, 21) == 42
        assert fn(21, 21) == 42         # ... when the crossing call returns
        st = fn.dispatcher.tier
        assert st.tier == 0 and st.ticket and not st.ticket[0].done()
        deadline = time.time() + 30.0
        while (fn.dispatcher.tier_info()["tier"] == 0
               and time.time() < deadline):
            assert fn(21, 21) == 42     # correct on every tier, every call
            time.sleep(0.01)
    assert fn.dispatcher.tier_info()["tier"] == 1
    assert st.ticket is None and st.calls == 2


def test_failed_tier_up_parks_interpreted(cold_service, cbackend,
                                          fake_toolchain, monkeypatch):
    monkeypatch.setenv("FAKECC_FAIL", "1")      # the compiler exits 1
    cold_service(fake_toolchain)
    fn = _fresh(ADD)
    before = registry().get("exec.tier_up_failed")
    with policy_override(TieredPolicy(threshold=2, sync=True)):
        for _ in range(5):
            assert fn(1, 2) == 3        # semantics unchanged: stays interp
        assert fn.dispatcher.target is fn.dispatcher.handles["interp"]
    assert fn.dispatcher.tier_info()["tier"] == 0
    assert fn.dispatcher.tier.failed and fn.dispatcher.tier.calls == 2
    assert registry().get("exec.tier_up_failed") == before + 1


def test_no_compiler_parks_the_function(monkeypatch):
    """Nothing to tier up to is not a failure — and not a reason to keep
    counting: the threshold call parks the function on the interpreter
    handle instead of leaving the trampoline (a lock a call) in the slot."""
    from repro.buildd import toolchain
    monkeypatch.setenv("REPRO_TERRA_CC", "/nonexistent/cc")
    toolchain.reset()
    try:
        fn = _fresh(ADD)
        before = registry().get("exec.tier_up_failed")
        with policy_override(TieredPolicy(threshold=3)):
            for i in range(50):
                assert fn(i, 2) == i + 2
            st = fn.dispatcher.tier
            assert st.calls == 3 and st.failed and st.ticket is None
            assert fn.dispatcher.target is fn.dispatcher.handles["interp"]
        assert fn.dispatcher.tier_info()["tier"] == 0
        assert registry().get("exec.tier_up_failed") == before
    finally:
        monkeypatch.undo()
        toolchain.reset()


ADD3 = """
terra add3(a : int32, b : int32, c : int32) : int32
  return a + b + c
end
"""


def test_the_profile_is_sized_from_the_signature(cbackend):
    """A call that does not run is not observed: a wrong-arity first call
    neither sizes the profile (``c`` must still be seen, and spliced) nor
    counts toward the threshold."""
    from repro.errors import FFIError
    fn = _fresh(ADD3)
    with policy_override(TieredPolicy(threshold=4, sync=True)):
        with pytest.raises(FFIError):
            fn(1, 2)
        st = fn.dispatcher.tier
        assert st.calls == 0 and st.profile == [[0, None]] * 3
        for i in range(6):
            assert fn(i, 2, 7) == i + 9
        assert st.tier == 1 and st.calls == 4
        assert st.respec.consts == {1: 2, 2: 7}


def test_a_tiered_run_starts_no_thread_but_buildd_workers(cold_service,
                                                          cbackend):
    """Staging runs on the crossing call; gcc on the buildd pool."""
    import threading
    before = set(threading.enumerate())
    fn = _fresh(ADD)
    with policy_override(TieredPolicy(threshold=2, sync=False)):
        while fn.dispatcher.tier_info()["tier"] == 0:
            assert fn(40, 2) == 42
        assert fn.dispatcher.tier_info()["respecialized"]
    started = {t.name for t in set(threading.enumerate()) - before}
    assert started and all(n.startswith("buildd_") for n in started), started


def test_a_tier_up_joins_the_ticket_the_user_holds(cold_service, cbackend):
    """The generic half of a tier-up is ``fn.compile_async("c")``: one
    link, one bind, one handle, whoever asked first."""
    from repro import trace
    fn = _fresh(ADD)
    trace.clear()
    trace.enable()
    try:
        held = fn.compile_async("c")
        with policy_override(TieredPolicy(threshold=2, sync=True,
                                          respec=False)):
            assert fn(20, 22) == 42 and fn(20, 22) == 42
        names = [e.name for e in trace.events()
                 if e.args.get("backend") != "interp"]      # tier 0's own
    finally:
        trace.disable()
        trace.clear()
    st = fn.dispatcher.tier
    assert st.tier == 1 and st.generic is held.result()
    assert names.count(f"link:{fn.name}") == 1
    assert names.count(f"bind:{fn.name}") == 1
    assert names.count(f"exec.tier_up:{fn.name}") == 1


def test_calls_made_while_the_tier_up_is_staged_interpret(cbackend):
    """The crossing call publishes "begun" before it stages, so a call of
    the same function from Python that staging runs (the variant's
    typecheck calls this ``__cast``) — on the same thread or another —
    never waits for the lock the crossing call holds."""
    import faulthandler
    import threading
    from repro import expr, struct
    from repro.core import types as T

    Box = struct("Box")
    Box.add_entry("v", T.int32)
    armed, seen = [], []

    def cast(fromtype, totype, e):
        if armed:
            del armed[:]
            st = fn.dispatcher.tier
            seen.append(("staging", st.ticket, st.lock.locked()))
            seen.append(("same thread", fn(5, 6)))
            other = threading.Thread(
                target=lambda: seen.append(("other thread", fn(7, 8))))
            other.start()
            other.join(20)
            assert not other.is_alive()
        return expr("Box { e }", env={"Box": Box, "e": e})

    Box.metamethods["__cast"] = cast
    fn = terra("""
    terra boxed(a : int32, b : int32) : int32
      var box : Box = a
      return box.v + b
    end
    """, env={"Box": Box})
    faulthandler.dump_traceback_later(30, exit=True)
    try:
        with policy_override(TieredPolicy(threshold=3, sync=True)):
            assert fn(1, 2) == 3 and fn(1, 2) == 3
            armed.append(True)
            assert fn(1, 2) == 3            # the crossing call
            assert fn.dispatcher.tier_info() == {
                "tier": 1, "calls": 3, "respecialized": True, "deopts": 0}
    finally:
        faulthandler.cancel_dump_traceback_later()
    assert seen == [("staging", (), True), ("same thread", 11),
                    ("other thread", 15)]
