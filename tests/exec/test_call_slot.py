"""The call slot: ``fn(...)`` runs ``fn.dispatcher.target``, which starts
as the dispatcher's resolver, is filled by the current policy on the first
call, and goes back to the resolver whenever the policy or the default
backend is switched — so a warm call consults nothing, and a switch still
reaches functions that are already warm."""

import sys
import threading
import time

import pytest

import repro
from repro import terra
from repro.errors import CompileError, FFIError
from repro.exec import (TieredPolicy, current_policy, policy_override,
                        set_policy)

from tests.exec.callpath import (guarded_frames, tiered_frames,
                                 warm_call_frames)

ADD = """
terra add(a : int32, b : int32) : int32
  return a + b
end
"""


def _fresh():
    return terra(ADD)


def _slot(fn):
    return fn.dispatcher.target


def _resting(fn) -> bool:
    """Is the slot its resolver (bound methods compare by ==)?"""
    return _slot(fn) == fn.dispatcher._resolve


# -- lifecycle ----------------------------------------------------------------

@pytest.mark.parametrize("policy", ["aot", "c", "interp"])
def test_first_call_installs_the_bound_handle(policy, request):
    if policy == "c":
        request.getfixturevalue("cbackend")     # skips where there is no gcc
    fn = _fresh()
    assert _resting(fn)
    with policy_override(policy):
        backend = repro.default_backend().name if policy == "aot" else policy
        assert fn(20, 22) == 42
        handle = fn.dispatcher.handles[backend]
        assert _slot(fn) is handle.entry        # the C handle's call plan;
        assert (handle.entry is handle) == (backend == "interp")  # interp's
        assert fn(1, 2) == 3                    # ... and stays: nothing
        assert _slot(fn) is handle.entry        # is re-decided


def test_tiered_slot_goes_from_trampoline_to_the_c_handle(cbackend):
    """Three states: the resolver, the tier-0 trampoline, and the very
    ``entry`` the ``c`` policy installs."""
    fn = _fresh()
    with policy_override(TieredPolicy(threshold=2, sync=True)):
        assert fn(20, 22) == 42
        trampoline = _slot(fn)
        assert not _resting(fn)
        assert trampoline not in fn.dispatcher.handles.values()
        assert fn(20, 22) == 42                 # crosses the threshold
        assert _slot(fn) is fn.dispatcher.handles["c"].entry
        assert fn.dispatcher.tier_info()["tier"] == 1
        assert fn(1, 2) == 3                    # any arguments: no guard
        assert _slot(fn) is fn.dispatcher.handles["c"].entry
    with policy_override("c"):
        assert fn(1, 2) == 3
        assert _slot(fn) is fn.dispatcher.handles["c"].entry


def test_a_later_tiered_policy_installs_tier_1_directly(cbackend):
    fn = _fresh()
    with policy_override(TieredPolicy(threshold=1, sync=True)):
        assert fn(1, 2) == 3
    assert _resting(fn)
    with policy_override(TieredPolicy(threshold=50)):
        assert fn(1, 2) == 3
        assert _slot(fn) is fn.dispatcher.handles["c"].entry


# -- every switch reaches a warm function ---------------------------------------

def test_set_policy_resets_a_warm_slot():
    fn, before = _fresh(), current_policy()
    try:
        set_policy("interp")
        assert fn(20, 22) == 42
        assert _slot(fn) is fn.dispatcher.handles["interp"]
        tiered = set_policy(TieredPolicy(threshold=50))
        assert _resting(fn)
        assert fn(20, 22) == 42
        assert fn.dispatcher.tier.calls == 1    # the new policy's trampoline
        set_policy("interp")
        assert _resting(fn) and fn(20, 22) == 42
        assert _slot(fn) is fn.dispatcher.handles["interp"]
        assert current_policy() is not tiered
    finally:
        set_policy(before)
    assert _resting(fn)


def test_nested_policy_override_resets_on_enter_and_on_every_exit(cbackend):
    fn, handles = _fresh(), None
    with pytest.raises(RuntimeError, match="leave by exception"):
        with policy_override("c"):
            assert fn(20, 22) == 42
            handles = fn.dispatcher.handles
            assert _slot(fn) is handles["c"].entry
            with policy_override("interp"):
                assert _resting(fn)
                assert fn(20, 22) == 42
                assert _slot(fn) is handles["interp"]
            assert _resting(fn)
            assert fn(20, 22) == 42
            assert _slot(fn) is handles["c"].entry
            raise RuntimeError("leave by exception")
    assert _resting(fn)
    assert fn(20, 22) == 42
    assert _slot(fn) is handles[repro.default_backend().name].entry


def test_set_default_backend_resets_a_warm_slot(request):
    fn, before = _fresh(), repro.default_backend().name
    other = "interp" if before == "c" else "c"
    if other == "c":
        request.getfixturevalue("cbackend")     # skips where there is no gcc
    with policy_override("aot"):
        try:
            assert fn(20, 22) == 42
            assert _slot(fn) is fn.dispatcher.handles[before].entry
            repro.set_default_backend(other)
            assert _resting(fn)
            assert fn(20, 22) == 42
            assert _slot(fn) is fn.dispatcher.handles[other].entry
        finally:
            repro.set_default_backend(before)
        assert _resting(fn)


def test_a_switch_does_not_disturb_a_dead_function():
    """The registry of installed slots is weak: a function nobody holds is
    collected with its slot installed, and the next reset passes over it."""
    import gc
    import weakref
    fn = _fresh()
    with policy_override("interp"):
        fn(1, 2)
        ref = weakref.ref(fn.dispatcher)
        del fn
        gc.collect()
        assert ref() is None
    # (leaving the block reset the slots that are left)


# -- failure ----------------------------------------------------------------------

def test_a_failed_compile_installs_nothing_and_the_next_call_retries(
        cold_service, cbackend, fake_toolchain, monkeypatch):
    monkeypatch.setenv("FAKECC_FAIL", "1")      # the compiler exits 1
    cold_service(fake_toolchain)
    fn = _fresh()
    with policy_override("c"):
        with pytest.raises(CompileError, match="induced failure"):
            fn(20, 22)
        assert _resting(fn) and not fn.dispatcher.handles
        cold_service()                          # a compiler that works
        assert fn(20, 22) == 42
        assert _slot(fn) is fn.dispatcher.handles["c"].entry


@pytest.mark.parametrize("policy", ["aot", "interp", "tiered"])
def test_externals_are_called_from_terra_not_from_python(policy):
    printf = repro.includec("stdio.h").printf
    with policy_override(policy):
        with pytest.raises(FFIError, match=r"printf\(\) is an external C "
                           r"function: externals are called from Terra"):
            printf("x")
    assert _resting(printf) and printf.dispatcher.tier is None


@pytest.mark.parametrize("policy", ["c", "interp", "tiered"])
def test_a_keyword_argument_names_the_function_on_every_route(policy,
                                                              request):
    """Terra parameters are positional: a keyword raises one ``TypeError``
    naming the Terra function — from the resolver, from the installed
    target (the C plan, the interpreter's handle, the tier-0 trampoline,
    tier 1) and from the handle called directly."""
    if policy != "interp":
        request.getfixturevalue("cbackend")
    fn = _fresh()
    want = "add() got an unexpected keyword argument 'b'"

    def refused(call):
        with pytest.raises(TypeError) as exc:
            call(1, b=2)
        return str(exc.value)

    with policy_override(TieredPolicy(threshold=3, sync=True)
                         if policy == "tiered" else policy):
        assert refused(fn) == want              # the resolver
        assert _resting(fn)                     # ... installed nothing
        assert fn(1, 2) == 3
        assert refused(fn) == want              # the installed target
        assert refused(_slot(fn)) == want
        for _ in range(3):
            fn(1, 2)
        assert refused(fn) == want              # tier 1 under tiered
        for handle in fn.dispatcher.handles.values():
            assert refused(handle) == want


# -- threads ----------------------------------------------------------------------

def test_eight_threads_across_an_asynchronous_tier_up(slow_cc, monkeypatch):
    monkeypatch.setenv("FAKECC_DELAY", "0.3")   # they call while gcc runs
    fn = _fresh()
    nthreads = 8
    barrier, results, errors = threading.Barrier(nthreads), [], []

    def caller(k):
        try:
            barrier.wait(10)
            deadline = time.time() + 60
            got = []
            while time.time() < deadline:
                got.append(fn(k, 2 * k))
                if fn.dispatcher.tier_info()["tier"] == 1 and len(got) > 50:
                    break
            got += [fn(k, 2 * k) for _ in range(50)]    # ... and at tier 1
            results.append((k, got))
        except Exception as exc:
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)         # more switches inside the hand-over
    try:
        with policy_override(TieredPolicy(threshold=5, sync=False)):
            threads = [threading.Thread(target=caller, args=(k,))
                       for k in range(nthreads)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(90)
            assert not any(t.is_alive() for t in threads)
            assert not errors and len(results) == nthreads
            for k, got in results:
                assert set(got) == {3 * k}
            st = fn.dispatcher.tier
            assert st.tier == 1 and st.calls == 5
            assert fn(1, 2) == 3
            assert _slot(fn) is fn.dispatcher.handles["c"].entry
            assert not _resting(fn)
    finally:
        sys.setswitchinterval(interval)


def test_a_switch_during_a_tier_up_leaves_the_slot_to_the_new_policy(
        slow_cc, monkeypatch):
    """The build lands after the policy changed.  Neither the buildd
    worker (it never touches a slot) nor a trampoline call that was already
    running (it installs only in place of itself, and the reset put a
    resolver there) may put a tiered target back."""
    monkeypatch.setenv("FAKECC_DELAY", "0.5")   # the compiler holds the build
    fn = _fresh()
    with policy_override(TieredPolicy(threshold=1, sync=False)):
        assert fn(20, 22) == 42                 # stages the held build
        trampoline, ticket = _slot(fn), fn.dispatcher.tier.ticket
        assert ticket is fn.dispatcher.pending["c"] and not ticket.done()
        with policy_override("interp"):
            assert fn(20, 22) == 42
            interp = fn.dispatcher.handles["interp"]
            assert _slot(fn) is interp
            ticket.result(60)                   # the build has landed
            assert fn(20, 22) == 42 and _slot(fn) is interp
            # a call still inside the old trampoline finishes the
            # tier-up, and is refused the slot
            assert trampoline(20, 22) == 42
            assert fn.dispatcher.tier.tier == 1
            assert _slot(fn) is interp
        # back under tiered: straight to tier 1
        assert fn(20, 22) == 42
        assert _slot(fn) is fn.dispatcher.handles["c"].entry


def test_a_switch_during_a_first_resolve_leaves_the_slot_to_the_new_policy(
        slow_cc, monkeypatch):
    """A function's first call is still resolving — its build held in the
    compiler — when the policy changes.  Its resolver had put the slot
    among the installed ones before it read the policy, so the reset gives
    the slot a new resolver, and the old policy's target is refused it."""
    monkeypatch.setenv("FAKECC_DELAY", "0.5")   # the compiler holds the build
    fn, got = _fresh(), []
    with policy_override("c"):
        first = threading.Thread(target=lambda: got.append(fn(20, 22)))
        first.start()
        deadline = time.time() + 30
        while "c" not in fn.dispatcher.pending and time.time() < deadline:
            time.sleep(0.005)
        assert "c" in fn.dispatcher.pending     # inside the old policy
    first.join(60)
    assert not first.is_alive() and got == [42]
    assert _resting(fn)     # the next call asks the policy current now


# -- the budget ----------------------------------------------------------------------

def test_warm_call_frame_budget(cbackend):
    """No clock: Python frames per warm call, counted by sys.setprofile —
    a timing test would be noise on a shared host, a frame count is not.
    A warm call is the measuring lambda and the C handle's ``entry``: a
    scalar function's native entry (no frame) once its shape unit has
    loaded, a pointer function's plan (which would lend a trappable unit's
    trap cell itself)."""
    scalar, pointer, entry = warm_call_frames()
    assert entry == "native"
    assert scalar <= 1 and pointer <= 2, (scalar, pointer)
    assert guarded_frames() == (1, "native")
    assert tiered_frames() <= 2     # tier 1 is that same entry, on its plan
