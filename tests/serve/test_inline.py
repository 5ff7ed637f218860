"""Where a warm call runs: on the event loop once its kernel has been
observed short, on the executor otherwise — the record as a state
machine, then the guarantee it buys over a live socket."""

import asyncio
import ctypes
import sys
import threading
import time
from types import SimpleNamespace

import pytest

from repro import trace
from repro.backend.c.runtime import WARM_CALLS
from repro.errors import TrapError
from repro.exec import current_policy
from repro.serve import ServeConfig, ServeError, ServerThread, state
from repro.serve.server import ServeServer
from repro.serve.state import (_INLINE_AFTER_MAX, INLINE_AFTER,
                               INLINE_BUDGET_S, TenantState, WarmKernel)

from .conftest import SAXPY, SQ, earn_the_loop, saxpy_buffers

FAST, SLOW = INLINE_BUDGET_S / 10, INLINE_BUDGET_S * 10


def kernel(handle=None):
    return WarmKernel("k", "f", fn=None, handle=handle)


def run(k, args, seconds):
    """One call as the server places and records it; returns where it ran."""
    inline = k.fits_inline(args)
    k.observe(args, seconds, inline)
    return inline


def warm(k, args, runs=INLINE_AFTER):
    for _ in range(runs):
        run(k, args, FAST)


class TestCostRecord:
    def test_not_eligible_before_the_streak_is_earned(self):
        k = kernel()
        placed = [run(k, [5], FAST) for _ in range(INLINE_AFTER + 2)]
        assert placed == [False] * INLINE_AFTER + [True, True]
        assert k.eligible

    def test_a_tiered_kernel_counts_its_compiled_runs_only(self):
        """An interpreted run earns nothing, so the streak counts the C
        plan's calls and the plan's WARM_CALLS-th, which takes its native
        entry's compile ticket, is one of those made off the loop."""
        info = {"tier": 0, "calls": 0}
        fn = SimpleNamespace(dispatcher=SimpleNamespace(
            tier_info=lambda: dict(info)))
        k = WarmKernel("k", "f", fn=fn, handle=fn, tiered=True)
        warm(k, [5], runs=3 * INLINE_AFTER)
        assert (k.streak, k.eligible) == (0, False)
        info["tier"] = 1
        placed = [run(k, [5], FAST) for _ in range(INLINE_AFTER + 1)]
        assert placed == [False] * INLINE_AFTER + [True]
        assert INLINE_AFTER >= WARM_CALLS

    def test_int_above_the_envelope_is_offloaded_then_widens_it(self):
        k = kernel()
        warm(k, [5, 2.0])
        assert k.fits_inline([5, 2.0]) and k.fits_inline([-5, 9e9])
        assert not k.fits_inline([6, 2.0])
        assert run(k, [1000, 2.0], FAST) is False   # observed off the loop
        assert k.fits_inline([1000, 2.0]) and k.fits_inline([-999, 2.0])
        assert not k.fits_inline([1001, 2.0])

    def test_only_ints_gate(self):
        k = kernel()
        buf = (ctypes.c_double * 4)()
        warm(k, [1.0, "s", None, buf, True])
        assert k.envelope == [0] * 5
        assert k.fits_inline([1e300, "longer string", None, buf, False])
        # an int where only other things were seen is outside the envelope
        assert not k.fits_inline([7, "s", None, buf, True])

    def test_bool_is_not_an_int(self):
        k = kernel()
        warm(k, [0])
        assert k.fits_inline([True]) and not k.fits_inline([1])

    def test_arity_change_is_not_eligible(self):
        k = kernel()
        warm(k, [1, 2])
        assert not k.fits_inline([1]) and not k.fits_inline([1, 2, 3])
        assert run(k, [1, 2, 3], FAST) is False     # e.g. a varargs entry
        assert k.streak == 1 and not k.fits_inline([1, 2])

    def test_zero_argument_kernel(self):
        k = kernel()
        warm(k, [])
        assert k.fits_inline([])

    def test_inline_overrun_demotes_and_doubles_up_to_the_cap(self):
        k = kernel()
        need = INLINE_AFTER
        for _ in range(12):
            warm(k, [3], runs=need)
            assert k.fits_inline([3])
            assert k.observe([3], SLOW, inline=True) is True
            need = min(2 * need, _INLINE_AFTER_MAX)
            assert (k.need, k.streak, k.envelope) == (need, 0, [])
            assert not k.eligible
        assert k.need == _INLINE_AFTER_MAX

    def test_offloaded_overrun_resets_without_doubling(self):
        k = kernel()
        warm(k, [3], runs=INLINE_AFTER - 1)
        assert k.observe([3], SLOW, inline=False) is False
        assert (k.need, k.streak, k.envelope) == (INLINE_AFTER, 0, [])
        warm(k, [3])
        assert k.fits_inline([3])

    def test_alternating_kernel_stays_off_the_loop(self):
        k = kernel()
        placed = [run(k, [1], FAST if i % 2 else SLOW) for i in range(10_000)]
        assert sum(placed) == 0

    def test_kernel_slow_whenever_inlined_ends_up_offloaded(self):
        """The worst case the doubling bounds: fast for exactly as long as
        it is watched from the executor, slow the moment it is trusted."""
        k = kernel()
        placed = []
        for _ in range(10_000):
            inline = k.fits_inline([1])
            k.observe([1], SLOW if inline else FAST, inline)
            placed.append(inline)
        assert sum(placed) <= 0.01 * len(placed)

    def test_one_hiccup_does_not_cost_the_loop(self):
        k = kernel()
        placed = [run(k, [1], SLOW if i == 5_000 else FAST)
                  for i in range(10_000)]
        assert sum(placed) >= 0.95 * len(placed)
        assert k.need == 2 * INLINE_AFTER

    def test_summary_counts_eligible_kernels(self):
        t = TenantState("t", 4)
        hot, cold = kernel(), kernel()
        t.kernels.put("hot", hot)
        t.kernels.put("cold", cold)
        warm(hot, [1])
        warm(cold, [1], runs=INLINE_AFTER - 1)
        summary = t.summary()
        assert summary["inline_eligible"] == 1
        assert (summary["inline"], summary["offloaded"],
                summary["demotions"]) == (0, 0, 0)


def counters(source):
    """The placement counters of the server behind ``source`` (a client
    or a :class:`ServerThread`), as its ``stats`` publishes them."""
    published = source.stats()["counters"]
    return {name: published[f"serve.{name}"] for name in
            ("requests", "exec.inline", "exec.offloaded", "inline.demoted",
             "traps")}


def queue_waits(source):
    timings = source.stats()["timings"]
    return timings.get("serve.queue_wait", {"runs": 0})["runs"]


def delta(source, before):
    now = counters(source)
    return {name: now[name] - before[name] for name in now}


SPIN = """
terra spin(n : int64) : double
  var s : double = 0.0
  for i = 0, n do
    s = s + 1.0 / (1.0 + s)
  end
  return s
end
"""
SPIN_N = 150_000_000  # ~0.5 s of serial dependent FP work


def long_call_leaves_the_loop_free(tmp_path):
    """``spin(1)`` two hundred times, then ``spin(SPIN_N)``: the long call
    is outside the envelope, so while it runs everyone else is served."""
    cfg = ServeConfig(socket_path=str(tmp_path / "i.sock"), workers=4,
                      tenant_concurrency=1, queue_limit=64)
    with ServerThread(cfg) as srv:
        before = counters(srv)
        with srv.client(tenant="hot") as c:
            for _ in range(200):
                c.call(SPIN, "spin", [1])
            placed = delta(srv, before)
            assert placed["exec.inline"] + placed["exec.offloaded"] == 200
            assert placed["exec.inline"] > 100     # hiccup demotions cost tens
            earn_the_loop(c, SPIN, "spin", [1])    # still trusted right now
        with srv.client(tenant="other") as c:
            c.call(SQ, "sq", [1.0])            # compile outside the timing
        hot = srv.stats()["tenants"]["hot"]
        started = threading.Event()
        done = []

        def long_call():
            with srv.client(tenant="hot") as c:
                started.set()
                done.append(c.call(SPIN, "spin", [SPIN_N]))

        t = threading.Thread(target=long_call)
        t.start()
        try:
            assert started.wait(10)
            time.sleep(0.1)                    # let the long call be admitted
            timings = {}
            with srv.client(tenant="other", timeout=10) as c:
                t0 = time.perf_counter()
                assert c.ping()
                timings["ping"] = time.perf_counter() - t0
                t0 = time.perf_counter()
                assert c.call(SQ, "sq", [2.0]) == 4.0
                timings["other tenant"] = time.perf_counter() - t0
            with srv.client(tenant="hot", timeout=10) as c:
                t0 = time.perf_counter()
                with pytest.raises(ServeError) as ei:
                    c.call(SPIN, "spin", [1])
                timings["same tenant"] = time.perf_counter() - t0
            assert ei.value.code == "tenant-over-quota"
            assert t.is_alive()                # all of it while spin ran
            assert max(timings.values()) < 0.1, timings
            spinning = srv.stats()["tenants"]["hot"]
            assert spinning["inflight"] == 1
            assert spinning["offloaded"] == hot["offloaded"] + 1
            assert spinning["demotions"] == hot["demotions"]
        finally:
            t.join(30)
        assert not t.is_alive() and done and done[0] > 0


@pytest.mark.usefixtures("cbackend")   # spin(SPIN_N) takes 0.5 s in C
class TestLoopIsolation:
    def test_long_call_outside_the_envelope_leaves_the_loop_free(
            self, tmp_path):
        long_call_leaves_the_loop_free(tmp_path)

    @pytest.mark.xfail(strict=True,
                       reason="without the guard the long call holds the loop")
    def test_the_same_body_sees_a_guard_that_always_says_yes(
            self, tmp_path, monkeypatch):
        monkeypatch.setattr(WarmKernel, "fits_inline", lambda self, args: True)
        long_call_leaves_the_loop_free(tmp_path)


@pytest.mark.usefixtures("cbackend")   # interpreted calls rarely fit inline
class TestPlacementAccounting:
    def test_every_request_plain_or_chunked_is_placed_once(self, server):
        n = 8
        with server.client(tenant="acct") as c:
            xs, ys = saxpy_buffers(c, n)
            args = [n, 2.0, {"buf": xs}, {"buf": ys}]
            before = counters(c)
            for _ in range(5 * INLINE_AFTER):
                c.call(SAXPY, "saxpy", args)
            with pytest.raises(ServeError):
                c.call(SQ, "sq", [1.0, 2.0])           # failed runs count too
            plain = delta(c, before)
            assert plain["exec.inline"] >= 1
            assert plain["exec.inline"] + plain["exec.offloaded"] == \
                plain["requests"] == 5 * INLINE_AFTER + 1
            before = counters(c)
            for _ in range(5 * INLINE_AFTER):
                c.call(SAXPY, "saxpy", args, chunk=(0, n))
            chunked = delta(c, before)
            assert chunked["exec.inline"] >= 1
            assert chunked["exec.inline"] + chunked["exec.offloaded"] == \
                chunked["requests"] == 5 * INLINE_AFTER
            summary = c.stats()["tenants"]["acct"]
        assert summary["inline"] == plain["exec.inline"] + \
            chunked["exec.inline"]
        assert summary["offloaded"] == plain["exec.offloaded"] + \
            chunked["exec.offloaded"]

    def test_a_range_is_bounded_by_the_envelope_like_any_int(self, server):
        """``[lo, hi)`` leads the arguments the cost record sees: short
        ranges earn the loop, a range beyond the ones observed leaves it."""
        n = 4096
        with server.client(tenant="ranges") as c:
            xs, ys = saxpy_buffers(c, n)
            args = [n, 2.0, {"buf": xs}, {"buf": ys}]
            before, waits = counters(c), queue_waits(c)
            calls = earn_the_loop(c, SAXPY, "saxpy", args, chunk=(8, 16))
            earning = delta(c, before)
            assert earning["exec.offloaded"] >= INLINE_AFTER
            assert earning["exec.inline"] + earning["exec.offloaded"] == calls
            # queue_wait is the wait for an executor thread: offloaded only
            assert queue_waits(c) - waits == earning["exec.offloaded"]

            def placed(chunk):
                before, waits = counters(c), queue_waits(c)
                c.call(SAXPY, "saxpy", args, chunk=chunk)
                now = delta(c, before)
                assert queue_waits(c) - waits == now["exec.offloaded"]
                return now["exec.inline"], now["exec.offloaded"]

            assert placed((8, 16)) == (1, 0)
            assert placed((0, 16)) == (1, 0)        # inside what was seen
            assert placed((0, n)) == (0, 1)         # hi beyond the envelope
            assert c.read(ys, 1, n - 1) == [2.0 * (n - 1)]


class TestPlacementInTheTrace:
    def test_exec_spans_say_where_they_ran_and_sit_in_that_lane(
            self, tmp_path, monkeypatch):
        # a traced, interpreted call often overruns the real budget; this
        # test is about where spans land, not what earns the loop
        monkeypatch.setattr(state, "INLINE_BUDGET_S", 1.0)
        src = "terra lane(a : int, b : int) : int return a / b end"
        cfg = ServeConfig(socket_path=str(tmp_path / "t.sock"), workers=2)
        trace.enable()
        try:
            with ServerThread(cfg) as srv:
                with srv.client(tenant="lanes") as c:
                    calls = earn_the_loop(c, src, "lane", [6, 3])
                    with pytest.raises(ServeError):
                        c.call(src, "lane", [6, 0])
            spans = [s for s in trace.events()
                     if s.name == "serve.exec:lane"]
        finally:
            trace.disable()
            trace.clear()
        assert len(spans) == calls + 1
        for span in spans:
            on_loop = span.thread_name == "repro-serve-loop"
            assert span.args["inline"] is on_loop
            assert on_loop or span.thread_name.startswith("repro-serve_")
        assert spans[0].args["inline"] is False
        assert spans[-1].args["inline"] is True
        assert spans[-1].args["error"] == "TrapError"


class TestOverrunsAreObserved:
    """Through the server's own call op, with a resident kernel whose
    handle's duration the test controls."""

    def drive(self, handle, calls):
        server = ServeServer(ServeConfig(workers=1))
        tenant, k = server._tenant("t"), kernel(handle)
        pool = "tiered" if current_policy().name == "tiered" else "default"
        tenant.kernels.put((pool, "f", False, "<source>"), k)
        outcomes = []

        async def main():
            server._loop = asyncio.get_running_loop()
            for args in calls:
                out = server._op_call({"tenant": "t", "source": "<source>",
                                       "entry": "f", "args": args}, None)
                if asyncio.iscoroutine(out):
                    out = await out
                if not out["ok"]:
                    assert out["error"]["code"] == "trap", out
                outcomes.append(out["result"] if out["ok"] else
                                TrapError(out["error"]["message"]))

        try:
            asyncio.run(main())
        finally:
            server._exec.shutdown(wait=True)
        return tenant, k, outcomes

    def test_slow_then_trap_on_the_loop_demotes(self):
        """A run that raises is timed like any other: a kernel cannot hold
        the loop again and again by failing at the end."""
        def handle(n):
            if n < 0:
                time.sleep(5 * INLINE_BUDGET_S)
                raise TrapError("integer division by zero")
            return n

        calls = [[4]] * (INLINE_AFTER + 1) + [[-4], [4]]
        tenant, k, outcomes = self.drive(handle, calls)
        assert outcomes[:INLINE_AFTER + 1] == [4] * (INLINE_AFTER + 1)
        assert isinstance(outcomes[-2], TrapError) and outcomes[-1] == 4
        assert tenant.placed == {"inline": 2, "demotions": 1,
                                 "offloaded": INLINE_AFTER + 1}
        assert k.need == 2 * INLINE_AFTER and k.streak == 1


class TestManyClientsOneHotKernel:
    def test_results_are_right_and_admission_drains(self, tmp_path):
        cfg = ServeConfig(socket_path=str(tmp_path / "h.sock"), workers=4)
        src = "terra hot(x : int) : int return 3 * x + 1 end"
        errors, threads, per_thread = [], 16, 60

        def worker(i):
            try:
                with srv.client(tenant="shared", timeout=30) as c:
                    for x in range(per_thread):
                        got = c.call(src, "hot", [i * 1000 + x])
                        assert got == 3 * (i * 1000 + x) + 1, (i, x, got)
            except BaseException as exc:
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)
        try:
            with ServerThread(cfg) as srv:
                before = counters(srv)
                pool = [threading.Thread(target=worker, args=(i,))
                        for i in range(threads)]
                for t in pool:
                    t.start()
                for t in pool:
                    t.join(60)
                assert not any(t.is_alive() for t in pool)
                stats = srv.stats()
                placed = delta(srv, before)
        finally:
            sys.setswitchinterval(interval)
        assert not errors, errors[:3]
        assert stats["inflight"] == 0
        assert stats["tenants"]["shared"]["inflight"] == 0
        assert stats["tenants"]["shared"]["requests"] == threads * per_thread
        assert placed["exec.inline"] + placed["exec.offloaded"] == \
            placed["requests"] == threads * per_thread
