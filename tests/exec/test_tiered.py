"""Tiered-policy behavior tests, centered on the correctness contract:
whatever tier a call lands on — interp tier 0 or the C handle the ``c``
policy would install — the observable result is bit-identical to the
reference interpreter (and at tier 1 to ahead-of-time C), traps
included."""

import pytest

from repro import global_, includec, int32, pointer, struct, terra
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


def test_tier_one_runs_the_aot_build_bit_for_bit(cbackend):
    """Tier 1 is the handle ``c`` installs, built with the flags its
    definer chose (``make_gemm_packed`` contracts FMAs): a packed GEMM
    under tiered equals the ahead-of-time result bit for bit."""
    import numpy as np
    from repro.autotune.matmul import make_gemm_packed
    N = 96
    rng = np.random.RandomState(N)
    A, B = rng.rand(N, N), rng.rand(N, N)
    gemm = make_gemm_packed(32, 4, 2, 4)
    aot, tiered = np.zeros((N, N)), np.zeros((N, N))
    with policy_override("c"):
        gemm(aot, A, B, N)
    with policy_override(TieredPolicy(threshold=1, sync=True)):
        gemm(tiered, A, B, N)
        assert gemm.dispatcher.tier_info()["tier"] == 1
        assert gemm.dispatcher.target is gemm.dispatcher.handles["c"].entry
    assert tiered.tobytes() == aot.tobytes()


MODSUM = """
terra modsum(n : int64, d : int64, x : &int64) : int64
  var acc : int64 = 0
  for i = 0, n do
    acc = acc + x[i] % d
  end
  return acc
end
"""

AXPY = """
terra axpy(n : int, a : double, x : &double, y : &double) : {}
  for i = 0, n do
    y[i] = a * x[i] + y[i] * 1.5
  end
end
"""

DOT = """
terra dot(n : int, x : &double, y : &double) : double
  var acc = 0.0
  for i = 0, n do
    acc = acc + x[i] * y[i]
  end
  return acc
end
"""


def _modsum_run(fn):
    import numpy as np
    x = np.arange(-50, 250, dtype=np.int64) * 7919
    return fn(len(x), 7, x)


def _axpy_run(fn):
    import numpy as np
    rng = np.random.RandomState(8)
    x, y = rng.rand(300), rng.rand(300)
    fn(len(x), 0.1, x, y)
    return y.tobytes()


def _dot_run(fn):
    import numpy as np
    rng = np.random.RandomState(9)
    x, y = rng.rand(300), rng.rand(300)
    return fn(len(x), x, y).hex()


@pytest.mark.parametrize("src,run", [
    pytest.param(MODSUM, _modsum_run, id="modsum"),
    pytest.param(AXPY, _axpy_run, id="axpy"),
    pytest.param(DOT, _dot_run, id="dot"),
])
def test_every_tier_equals_aot_bit_for_bit(cbackend, src, run):
    """The same inputs on a function defined once for ``c`` and once for
    ``tiered``: tier 0, the crossing call and tier 1 each return what the
    ahead-of-time build returns, and tier 1 runs the ``c`` handle."""
    aot_fn, fn = _fresh(src), _fresh(src)
    with policy_override("c"):
        expected = run(aot_fn)
    with policy_override(TieredPolicy(threshold=2, sync=True)):
        got = [run(fn) for _ in range(3)]
        assert fn.dispatcher.target is fn.dispatcher.handles["c"].entry
    assert got == [expected] * 3
    assert fn.dispatcher.tier_info() == {"tier": 1, "calls": 2}


def test_stable_then_changed_arguments_run_one_entry(cbackend):
    """Repeating the same arguments until the tier-up and then changing
    them runs the one C entry throughout: no guard, no deoptimization."""
    fn = _fresh(ADD)
    with policy_override(TieredPolicy(threshold=2, sync=True)):
        assert fn(40, 2) == 42
        assert fn(40, 2) == 42          # crosses the threshold
        entry = fn.dispatcher.handles["c"].entry
        assert fn.dispatcher.target is entry
        assert fn(40, 2) == 42
        assert fn(1, 2) == 3            # other arguments, same entry
        assert fn(-7, 2) == -5
        assert fn.dispatcher.target is entry
    assert fn.dispatcher.tier_info() == {"tier": 1, "calls": 2}


def test_a_global_keeps_its_value_across_the_tier_up(cbackend):
    """A global has one storage, which both tiers address: the C entry
    goes on counting where the interpreter stopped, and Python reads the
    last count."""
    g = global_(int32, 0, "count")
    bump = terra("terra bump() : int32 g = g + 1 return g end", env={"g": g})
    with policy_override(TieredPolicy(threshold=3, sync=True)):
        assert [bump() for _ in range(6)] == [1, 2, 3, 4, 5, 6]
    assert bump.dispatcher.tier_info()["tier"] == 1
    assert g.get() == 6


def lazy_counter():
    """A counter that mallocs its cell at the first call and keeps the
    cell's address in a global."""
    std = includec("stdlib.h")
    g = global_(pointer(int32), None, "lazy")
    return terra("""
    terra count() : int32
      if g == nil then g = [&int32](std.malloc(4)) @g = 0 end
      @g = @g + 1
      return @g
    end
    """, env={"g": g, "std": std})


def test_a_heap_block_kept_in_a_global_carries_across_the_tier_up(
        cbackend):
    """The tiers share one address space: the interpreter mallocs the
    cell at the first call, and the C entry goes on counting in it."""
    count = lazy_counter()
    with policy_override(TieredPolicy(threshold=3, sync=True)):
        assert count() == 1
        assert count.dispatcher.tier_info() == {"tier": 0, "calls": 1}
        assert [count() for _ in range(3)] == [2, 3, 4]
        assert count.dispatcher.tier_info() == {"tier": 1, "calls": 3}


@pytest.mark.parametrize("first,second", [("interp", "c"), ("c", "interp")])
def test_an_address_in_a_global_across_backends(cbackend, first, second):
    """A block the interpreter malloc'd is process memory, so C goes on
    counting in it; one C malloc'd lies in no region of the interpreter's,
    whose first load from it traps as unmapped."""
    count = lazy_counter()
    run = count.compile(first)
    assert [run(), run()] == [1, 2]
    if first == "interp":
        assert count.compile(second)() == 3
    else:
        with pytest.raises(TrapError, match="load from unmapped address"):
            count.compile(second)()
    assert run() == (4 if first == "interp" else 3)


def test_a_function_pointer_the_interpreter_stored_is_called_from_c(
        cbackend):
    """The interpreter stores a callable address: called from C, with a
    pointer into C's own frame, it runs the function's C entry, compiled
    at that first call."""
    vt = global_(struct("struct VT { f : {&int32} -> int32 }"), None, "vt")
    m = terra("""
    terra get(p : &int32) : int32 return @p end
    terra fill() vt.f = get end
    terra call() : int32 var x : int32 = 7 return vt.f(&x) end
    """, env={"vt": vt})
    m.fill.compile("interp")()
    assert "c" not in m.get.dispatcher.handles
    assert m.call.compile("c")() == 7
    assert m.call.compile("interp")() == 7


def test_a_function_pointer_global_filled_on_the_interpreter(cbackend):
    """A global whose type is a bare function pointer — to a Terra
    function, or to the C library's own ``sqrt`` — holds on the
    interpreter the address C stores there, so C calls through it."""
    mathh = includec("math.h")
    add1 = terra("terra add1(x : double) : double return x + 1 end")
    for target, want in ((add1, 10.0), (mathh.sqrt, 3.0)):
        g = global_(pointer(add1.gettype()))
        m = terra("""
        terra fill() g = target end
        terra call(x : double) : double return g(x) end
        """, env={"g": g, "target": target})
        m.fill.compile("interp")()
        assert m.call.compile("c")(9.0) == want
        assert m.call.compile("interp")(9.0) == want


@pytest.mark.parametrize("option", ["respec", "min_observations"])
def test_tiered_policy_takes_only_threshold_and_sync(option):
    """There is one compiled tier, so there is nothing to configure about
    a second one."""
    with pytest.raises(TypeError):
        TieredPolicy(threshold=2, sync=True, **{option: 1})
    policy = TieredPolicy(threshold=0, sync=1)
    assert (policy.threshold, policy.sync) == (1, True)


def test_trap_parity_at_every_tier(cbackend):
    """The trap cases: tier-0 interp and the C entry must both trap with
    the identical message the reference interpreter produces."""
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
        assert fn(100, 5) == 20         # the tier-up
        assert fn.dispatcher.tier_info()["tier"] == 1
        # a trap at tier 1, in the C entry
        with pytest.raises(TrapError) as t1:
            fn(100, 0)
        assert str(t1.value) == str(ref_exc.value)
        assert fn(100, 5) == 20         # the pool survives the trap


def test_background_tier_up_eventually_lands(slow_cc, monkeypatch):
    monkeypatch.setenv("FAKECC_DELAY", "0.2")   # gcc is still running ...
    fn = _fresh(ADD)
    import time
    with policy_override(TieredPolicy(threshold=2, sync=False)):
        assert fn(21, 21) == 42
        assert fn(21, 21) == 42         # ... when the crossing call returns
        st = fn.dispatcher.tier
        assert st.tier == 0 and st.ticket and not st.ticket.done()
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


def test_a_call_that_does_not_run_is_not_counted(cbackend):
    """A wrong-arity call raises at tier 0 and does not count toward the
    threshold."""
    from repro.errors import FFIError
    fn = _fresh(ADD3)
    with policy_override(TieredPolicy(threshold=4, sync=True)):
        with pytest.raises(FFIError):
            fn(1, 2)
        st = fn.dispatcher.tier
        assert st.calls == 0
        for i in range(6):
            assert fn(i, 2, 7) == i + 9
        assert st.tier == 1 and st.calls == 4


def test_a_tiered_run_starts_no_thread_but_buildd_workers(cold_service,
                                                          cbackend):
    """Staging runs on the crossing call; gcc on the buildd pool."""
    import threading
    before = set(threading.enumerate())
    fn = _fresh(ADD)
    with policy_override(TieredPolicy(threshold=2, sync=False)):
        while fn.dispatcher.tier_info()["tier"] == 0:
            assert fn(40, 2) == 42
    started = {t.name for t in set(threading.enumerate()) - before}
    assert started and all(n.startswith("buildd_") for n in started), started


def test_a_tier_up_joins_the_ticket_the_user_holds(cold_service, cbackend):
    """A tier-up is ``fn.compile_async("c")``: one link, one bind, one
    handle, whoever asked first."""
    from repro import trace
    fn = _fresh(ADD)
    trace.clear()
    trace.enable()
    try:
        held = fn.compile_async("c")
        with policy_override(TieredPolicy(threshold=2, sync=True)):
            assert fn(20, 22) == 42 and fn(20, 22) == 42
        names = [e.name for e in trace.events()
                 if e.args.get("backend") != "interp"]      # tier 0's own
    finally:
        trace.disable()
        trace.clear()
    assert fn.dispatcher.tier.tier == 1
    assert fn.dispatcher.handles["c"] is held.result()
    assert names.count(f"link:{fn.name}") == 1
    assert names.count(f"bind:{fn.name}") == 1
    assert names.count(f"exec.tier_up:{fn.name}") == 1


def test_calls_made_while_the_tier_up_is_staged_interpret(cbackend,
                                                         monkeypatch):
    """The crossing call publishes "begun" before it stages, so a call of
    the same function made while it stages — from Python that staging
    runs, on the same thread, or from another thread — never waits for
    the lock the crossing call holds."""
    import faulthandler
    import threading
    from repro.exec import Dispatcher

    armed, seen = [], []
    compile_async = Dispatcher.compile_async

    def staging(dispatcher, backend=None):
        if armed and backend == "c":
            del armed[:]
            st = fn.dispatcher.tier
            seen.append(("staging", st.ticket, st.lock.locked()))
            seen.append(("same thread", fn(5, 6)))
            other = threading.Thread(
                target=lambda: seen.append(("other thread", fn(7, 8))))
            other.start()
            other.join(20)
            assert not other.is_alive()
        return compile_async(dispatcher, backend)

    monkeypatch.setattr(Dispatcher, "compile_async", staging)
    fn = _fresh(ADD)
    faulthandler.dump_traceback_later(30, exit=True)
    try:
        with policy_override(TieredPolicy(threshold=3, sync=True)):
            assert fn(1, 2) == 3 and fn(1, 2) == 3
            armed.append(True)
            assert fn(1, 2) == 3            # the crossing call
            assert fn.dispatcher.tier_info() == {"tier": 1, "calls": 3}
    finally:
        faulthandler.cancel_dump_traceback_later()
    assert seen == [("staging", (), True), ("same thread", 11),
                    ("other thread", 15)]
