"""Dispatcher + policy-registry unit tests: the state that used to live
on TerraFunction (compiled handles, pending tickets, backend choice) now
lives on one per-function Dispatcher, consulted through a process-wide
execution policy."""

import sys
import threading

import pytest

from repro import terra
from repro.errors import ConfigError
from repro.exec import (AheadOfTimePolicy, TieredPolicy, current_policy,
                        make_policy, policy_override, set_policy)

ADD = """
terra add(a : int32, b : int32) : int32
  return a + b
end
"""


def _fresh():
    return terra(ADD)


def test_every_function_owns_a_dispatcher():
    fn = _fresh()
    assert fn.dispatcher.fn is fn
    assert fn.dispatcher.handles == {}
    assert fn.dispatcher.pending == {}


def test_compiled_handle_caches_per_backend():
    fn = _fresh()
    h1 = fn.dispatcher.compiled_handle("interp")
    h2 = fn.dispatcher.compiled_handle("interp")
    assert h1 is h2
    assert set(fn.dispatcher.handles) == {"interp"}
    assert h1(2, 3) == 5


def test_install_first_wins():
    fn = _fresh()
    handle = fn.dispatcher.compiled_handle("interp")
    sentinel = object()
    assert fn.dispatcher.install("interp", sentinel) is handle
    assert fn.dispatcher.compiled_handle("interp") is handle


def test_compile_async_joins_pending(cbackend):
    fn = _fresh()
    t1 = fn.dispatcher.compile_async(cbackend)
    t2 = fn.dispatcher.compile_async(cbackend)
    assert t1 is t2                      # one in-flight build, not two
    handle = fn.dispatcher.compiled_handle(cbackend)
    assert handle is t1.result()
    assert "c" not in fn.dispatcher.pending   # resolved tickets are popped
    assert handle(20, 22) == 42


def _join(fn, nthreads=4):
    """``fn.compile("c")`` from ``nthreads`` threads released together;
    returns what each got — a handle or the exception it raised."""
    barrier, got = threading.Barrier(nthreads), []

    def joiner():
        barrier.wait(10)
        try:
            got.append(fn.compile("c"))
        except Exception as exc:
            got.append(exc)

    threads = [threading.Thread(target=joiner) for _ in range(nthreads)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)         # more switches inside the join
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and len(got) == nthreads
    return got


def test_four_threads_joining_one_compile_async_share_it(cold_service,
                                                         cbackend):
    """One route from a function to its code, and everyone who asks shares
    it: one link, one buildd submit, one bind, one CDLL."""
    from repro import trace
    from repro.buildd import get_service
    fn = _fresh()
    stats, libs = get_service().stats, len(cbackend._libs)
    trace.clear()
    trace.enable()
    try:
        ticket = fn.compile_async(cbackend)
        handles = _join(fn)
        names = [e.name for e in trace.events()]
    finally:
        trace.disable()
        trace.clear()
    assert all(h is handles[0] for h in handles) and handles[0](20, 22) == 42
    assert ticket.result() is handles[0]
    assert names.count(f"link:{fn.name}") == 1
    assert names.count(f"bind:{fn.name}") == 1
    assert stats.submitted == 1
    assert len(cbackend._libs) == libs + 1
    assert not fn.dispatcher.pending


def test_two_definitions_of_one_artifact_share_its_cdll(cold_service,
                                                        cbackend):
    """The second definition binds the first one's artifact: one CDLL per
    path, and a function object of its own."""
    libs = len(cbackend._libs)
    first, second = (_fresh().compile(cbackend) for _ in range(2))
    assert first(20, 22) == second(20, 22) == 42
    assert len(cbackend._libs) == libs + 1
    assert first.cfn is not second.cfn


def test_a_failed_compile_raises_from_every_joiner_and_is_retried(
        cold_service, cbackend, fake_toolchain, monkeypatch):
    """A failed ticket is nobody's cached answer: every joiner sees the
    failure, no ticket stays behind, the next compile starts over."""
    from repro.errors import CompileError
    monkeypatch.setenv("FAKECC_FAIL", "1")      # the compiler exits 1
    cold_service(fake_toolchain)
    fn = _fresh()
    ticket = fn.compile_async(cbackend)
    failures = _join(fn)
    assert all(isinstance(f, CompileError) and "induced failure" in str(f)
               for f in failures)
    with pytest.raises(CompileError, match="induced failure"):
        ticket.result()
    assert not fn.dispatcher.pending and not fn.dispatcher.handles
    cold_service()                      # a compiler that works
    assert fn.compile(cbackend)(20, 22) == 42
    assert not fn.dispatcher.pending


def test_function_facade_delegates():
    """fn.compile / fn() hit the dispatcher's state."""
    fn = _fresh()
    handle = fn.compile("interp")
    assert fn.dispatcher.handles["interp"] is handle
    assert not fn.dispatcher.pending


def test_tier_info_defaults_without_tier_state():
    fn = _fresh()
    assert fn.dispatcher.tier_info() == {"tier": 0, "calls": 0}


# -- the policy registry ------------------------------------------------------

def test_make_policy_names():
    assert isinstance(make_policy(""), AheadOfTimePolicy)
    assert make_policy("aot").backend_name is None
    assert make_policy("c").backend_name == "c"
    assert make_policy("interp").backend_name == "interp"
    assert isinstance(make_policy("tiered"), TieredPolicy)
    with pytest.raises(ValueError, match="unknown execution policy"):
        make_policy("jit")


def test_policy_override_restores():
    before = current_policy()
    with policy_override("interp") as p:
        assert current_policy() is p
        assert p.name == "interp"
    assert current_policy() is before


def test_set_policy_rejects_non_policies():
    before = current_policy()
    try:
        with pytest.raises(TypeError):
            set_policy(42)
    finally:
        set_policy(before)


def test_pinned_policies_agree_bitwise(cbackend):
    fn = _fresh()
    with policy_override("interp"):
        via_interp = fn(7, -9)
    with policy_override("c"):
        via_c = fn(7, -9)
    assert via_interp == via_c == -2


def test_tiered_from_env(monkeypatch):
    monkeypatch.setenv("REPRO_TERRA_TIER_THRESHOLD", "3")
    monkeypatch.setenv("REPRO_TERRA_TIER_SYNC", "1")
    p = make_policy("tiered")
    assert (p.threshold, p.sync) == (3, True)
    monkeypatch.setenv("REPRO_TERRA_TIER_SYNC", "false")  # one convention:
    assert make_policy("tiered").sync is True             # only "0" is off
    monkeypatch.setenv("REPRO_TERRA_TIER_THRESHOLD", "many")
    with pytest.raises(ConfigError, match="TIER_THRESHOLD"):
        make_policy("tiered")
