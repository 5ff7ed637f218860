"""Tiered-policy behavior tests, centered on the correctness contract:
whatever tier a call lands on — interp tier 0, generic C, respecialized
variant, or a guard-miss deoptimization — the observable result is
bit-identical to the reference interpreter, traps included."""

import pytest

from repro import terra
from repro.errors import TrapError
from repro.exec import TieredPolicy, policy_override
from repro.trace import profile
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
    fn = terra(src)
    profile.clear_args(fn)
    return fn


def test_tier_up_exactly_at_threshold():
    fn = _fresh(ADD)
    with policy_override(TieredPolicy(threshold=3, sync=True)):
        for i in range(1, 6):
            assert fn(i, 10) == i + 10
            info = fn.dispatcher.tier_info()
            assert info["tier"] == (0 if i < 3 else 1), f"call {i}"
    # the counter stops at the threshold-crossing call
    assert fn.dispatcher.tier_info()["calls"] == 3


def test_results_bit_identical_across_the_transition():
    fn = _fresh(FMA)
    ref = _fresh(FMA)
    argsets = [(0.1, 3, -7)] * 4 + [(-0.0, 3, -7), (1e300, 3, -7)]
    with policy_override("interp"):
        expected = [ref(*a) for a in argsets]
    with policy_override(TieredPolicy(threshold=2, sync=True)):
        got = [fn(*a) for a in argsets]
    assert [g.hex() for g in got] == [e.hex() for e in expected]
    assert fn.dispatcher.tier_info()["tier"] == 1


def test_respecialization_hit_then_guarded_deopt():
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


def test_trap_parity_at_every_tier():
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


def test_respec_disabled_by_knob():
    fn = _fresh(ADD)
    with policy_override(TieredPolicy(threshold=2, sync=True,
                                      respec=False)):
        for _ in range(3):
            assert fn(20, 22) == 42
        info = fn.dispatcher.tier_info()
        assert info["tier"] == 1 and not info["respecialized"]
        assert fn.dispatcher.tier.respec is None


def test_background_tier_up_eventually_lands():
    fn = _fresh(ADD)
    import time
    with policy_override(TieredPolicy(threshold=2, sync=False)):
        deadline = time.time() + 30.0
        while (fn.dispatcher.tier_info()["tier"] == 0
               and time.time() < deadline):
            assert fn(21, 21) == 42     # correct on every tier, every call
            time.sleep(0.01)
    assert fn.dispatcher.tier_info()["tier"] == 1
    from repro.buildd import get_service
    assert get_service().stats.snapshot()["tier_ups"] >= 1


def test_failed_tier_up_parks_interpreted(monkeypatch):
    fn = _fresh(ADD)
    policy = TieredPolicy(threshold=2, sync=True)
    monkeypatch.setattr(
        TieredPolicy, "_stage",
        lambda self, dispatcher: (_ for _ in ()).throw(RuntimeError("boom")))
    before = registry().get("exec.tier_up_failed")
    with policy_override(policy):
        for _ in range(5):
            assert fn(1, 2) == 3        # semantics unchanged: stays interp
    assert fn.dispatcher.tier_info()["tier"] == 0
    assert fn.dispatcher.tier.failed
    assert registry().get("exec.tier_up_failed") == before + 1


def test_on_tier_up_hook_fires_and_cannot_break_execution():
    fn = _fresh(ADD)
    seen = []

    def hook(dispatcher):
        seen.append(dispatcher)
        raise RuntimeError("observability bugs must not surface")

    fn.dispatcher.on_tier_up = hook
    with policy_override(TieredPolicy(threshold=2, sync=True)):
        assert fn(1, 1) == 2
        assert fn(2, 2) == 4            # tier-up: hook fires, raise ignored
    assert seen == [fn.dispatcher]
    assert fn.dispatcher.tier_info()["tier"] == 1
