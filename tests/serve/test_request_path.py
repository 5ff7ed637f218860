"""The request path: a request that waits for nothing is answered in the
frame that decoded it, and every ``serve.*`` count is its server's own,
published by ``stats``."""

import asyncio
import json
import threading
from types import CoroutineType

import pytest

from repro import trace
from repro.serve import ServeConfig, ServeError, ServerThread
from repro.serve.server import ServeServer

from .conftest import SQ, earn_the_loop

BUMP = "terra bump(x : int) : int return x + 7 end"
CALL = (json.dumps({"op": "call", "tenant": "t", "source": BUMP,
                    "entry": "bump", "args": [5], "id": 3}) + "\n").encode()


def line(**req) -> bytes:
    return (json.dumps(req) + "\n").encode()


def now(response) -> dict:
    """``response``, checked to be an answer, not a coroutine to await."""
    assert type(response) is dict, response
    return response


def drive(body, **config):
    """``await body(server)`` on a bare server's own loop (``_handle_line``
    needs no socket)."""
    server = ServeServer(ServeConfig(workers=1, **config))

    async def main():
        server._loop = asyncio.get_running_loop()
        return await body(server)

    try:
        return asyncio.run(main())
    finally:
        server._exec.shutdown(wait=True)


async def until_inline(server, limit=1000) -> tuple[int, dict]:
    """Send :data:`CALL` until one is answered without suspending; the
    calls made and that answer."""
    for calls in range(1, limit):
        out = server._handle_line(CALL)
        if type(out) is not CoroutineType:
            return calls, out
        assert (await out)["result"] == 12
    raise AssertionError(f"bump never ran on the loop in {limit} calls")


class TestNoSuspension:
    def test_requests_that_wait_for_nothing_are_answered_at_once(self):
        async def body(server):
            def handle(**req):
                return now(server._handle_line(line(tenant="t", **req)))

            assert handle(op="ping", id=1) == {"ok": True, "result": "pong",
                                               "id": 1}
            assert "counters" in handle(op="stats")["result"]
            buf = handle(op="alloc", dtype="int32", count=4)["result"]["buf"]
            assert handle(op="write", buf=buf, values=[1, 2])["result"] == 2
            assert handle(op="read", buf=buf, count=2)["result"] == [1, 2]
            assert handle(op="free", buf=buf)["result"] is True
            assert handle(op="read", buf=buf, count=2)["error"]["code"] == \
                "unknown-buffer"
            assert now(server._handle_line(b"nope\n"))["error"]["code"] == \
                "bad-json"

        drive(body)

    def test_only_a_miss_and_an_offloaded_call_suspend(self, cbackend):
        async def body(server):
            miss = server._handle_line(CALL)        # compile
            assert type(miss) is CoroutineType
            assert (await miss)["result"] == 12
            offloaded = server._handle_line(CALL)   # a hit, not yet short
            assert type(offloaded) is CoroutineType
            assert (await offloaded)["result"] == 12
            calls, answer = await until_inline(server)
            assert answer == {"ok": True, "result": 12, "id": 3}
            summary = server.stats()["tenants"]["t"]
            assert summary["inline"] >= 1
            assert summary["requests"] == calls + 2

        drive(body, backend="c")

    def test_a_traced_inline_call_keeps_its_span_and_lane(self, cbackend):
        async def body(server):
            await server._handle_line(CALL)
            trace.clear()
            trace.enable()
            try:
                calls, answer = await until_inline(server)
                spans = [s for s in trace.events()
                         if s.name == "serve.exec:bump"]
                hits = [s for s in trace.events()
                        if s.name == "serve.cache_hit"]
            finally:
                trace.disable()
                trace.clear()
            assert answer["result"] == 12
            assert len(spans) == len(hits) == calls
            inline = spans[-1]
            assert inline.args["inline"] is True
            assert inline.args["tenant"] == "t"
            assert inline.args["key"] == hits[-1].args["key"]
            assert inline.thread_name == threading.current_thread().name
            assert all(s.args["inline"] is False for s in spans[:-1])

        drive(body, backend="c")


class TestServerOwnedCounts:
    ONE = "terra one(x : int) : int return x + 1 end"
    TWO = "terra two(x : int) : int return x + 2 end"
    BOOM = "terra boom(x : int) : int return 1 / (x - x) end"

    def test_accounting_identities_after_mixed_traffic(self, tmp_path):
        """A one-kernel pool evicts on most misses; the hits its evicted
        kernels took stay counted."""
        cfg = ServeConfig(socket_path=str(tmp_path / "a.sock"), workers=2,
                          tenant_kernels=1, backend="interp")
        one, two, boom = self.ONE, self.TWO, self.BOOM
        with ServerThread(cfg) as srv:
            with srv.client(tenant="mixed") as c:
                for src, entry, x in [(one, "one", 1)] * 3 + \
                        [(two, "two", 2)] * 2 + [(one, "one", 1)] * 2:
                    assert c.call(src, entry, [1]) == 1 + x
                failing = [(boom, "boom", [1], "trap"),
                           (one, "one", [1, 2], "bad-request"),
                           (one, "nope", [1], "unknown-entry"),
                           (one, "one", [{"buf": 99}], "unknown-buffer")]
                for src, entry, args, code in failing:
                    with pytest.raises(ServeError) as ei:
                        c.call(src, entry, args)
                    assert ei.value.code == code
            with srv.client(tenant="other") as c:
                assert c.call(two, "two", [0]) == 2
            stats = srv.stats()
        counters, mixed = stats["counters"], stats["tenants"]["mixed"]
        requests, succeeded, reached = 12, 8, 10
        assert counters["serve.requests"] == requests
        assert counters["serve.exec.inline"] + \
            counters["serve.exec.offloaded"] == reached
        assert counters["serve.cache_hit"] + counters["serve.compile"] == \
            requests
        assert stats["timings"]["serve.request"]["runs"] == succeeded
        assert (counters["serve.traps"], counters["serve.errors"]) == (1, 3)
        assert mixed["kernel_evictions"] == counters["serve.evicted"] == 4
        assert mixed["kernel_hits"] == counters["serve.cache_hit"] == 5

    def test_two_servers_in_one_process_count_their_own(self, tmp_path,
                                                        cbackend):
        def config(name):
            return ServeConfig(socket_path=str(tmp_path / name), workers=2,
                               backend="c")

        with ServerThread(config("a.sock")) as a, \
                ServerThread(config("b.sock")) as b:
            with a.client(tenant="t") as c:
                calls = earn_the_loop(c, SQ, "sq", [2.0])
                for _ in range(3):
                    assert c.call(SQ, "sq", [2.0]) == 4.0
                calls += 3
            with b.client(tenant="t") as c:
                for _ in range(3):
                    assert c.call(SQ, "sq", [3.0]) == 9.0
            got = {name: srv.stats() for name, srv in (("a", a), ("b", b))}
        counts = {name: {k: s["counters"][f"serve.{k}"] for k in
                         ("requests", "cache_hit", "exec.inline")}
                  for name, s in got.items()}
        assert counts["a"]["requests"] == calls
        assert counts["a"]["cache_hit"] == calls - 1
        assert counts["a"]["exec.inline"] == \
            got["a"]["tenants"]["t"]["inline"] >= 1
        assert counts["b"] == {"requests": 3, "cache_hit": 2,
                               "exec.inline": 0}
