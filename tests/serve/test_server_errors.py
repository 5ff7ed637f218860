"""Protocol error paths: every failure is one well-formed error response
with a code from the closed set — never a hang, never a dead connection
(except framing errors, where closing is the specified behaviour)."""

import json
import threading

import pytest

from repro.serve import ServeConfig, ServeError, ServerThread, protocol

from .conftest import SAXPY, SQ, earn_the_loop


def call_code(client, *args, **kwargs):
    """The error code a call produces (fails the test if it succeeds)."""
    with pytest.raises(ServeError) as ei:
        client.call(*args, **kwargs)
    return ei.value.code


class TestFraming:
    def test_malformed_json_line(self, server):
        with server.client() as c:
            resp = c.send_raw(b"this is not json\n")
        assert resp["ok"] is False
        assert resp["error"]["code"] == "bad-json"

    def test_non_object_json_line(self, server):
        with server.client() as c:
            resp = c.send_raw(b"[1,2,3]\n")
        assert resp["error"]["code"] == "bad-json"

    def test_connection_survives_a_bad_request(self, server):
        # semantic errors don't kill the stream: the same connection works
        with server.client() as c:
            resp = c.send_raw(json.dumps({"op": "nope"}).encode() + b"\n")
            assert resp["error"]["code"] == "unknown-op"
            assert c.ping()

    def test_oversized_request_line(self, tmp_path):
        cfg = ServeConfig(socket_path=str(tmp_path / "o.sock"), workers=2,
                          max_request_bytes=4096)
        with ServerThread(cfg) as srv:
            with srv.client() as c:
                big = json.dumps({"op": "ping", "pad": "x" * 8192})
                resp = c.send_raw(big.encode() + b"\n")
                assert resp["error"]["code"] == "oversized"
                # the stream position is untrustworthy: server closed it
                with pytest.raises((ConnectionError, OSError)):
                    c.send_raw(b'{"op":"ping"}\n')
            # new connections are unaffected
            with srv.client() as c2:
                assert c2.ping()


class TestRequestValidation:
    def test_unknown_op(self, server):
        with server.client() as c:
            with pytest.raises(ServeError) as ei:
                c.request({"op": "teleport"})
            assert ei.value.code == "unknown-op"

    def test_missing_required_fields(self, server):
        with server.client() as c:
            with pytest.raises(ServeError) as ei:
                c.request({"op": "call", "entry": "f"})  # no source
            assert ei.value.code == "bad-request"

    def test_ill_typed_fields(self, server):
        with server.client() as c:
            with pytest.raises(ServeError) as ei:
                c.request({"op": "call", "source": 42, "entry": "f"})
            assert ei.value.code == "bad-request"

    def test_bad_chunk_shape(self, server):
        with server.client() as c:
            with pytest.raises(ServeError) as ei:
                c.request({"op": "call", "source": SQ, "entry": "sq",
                           "args": [1.0], "chunk": [0]})
            assert ei.value.code == "bad-request"

    def test_chunk_bound_outside_int64_does_not_wrap(self, client):
        # c_int64 would read 2**64 + 8 as 8 and run [0, 8)
        n = 16
        xs, ys = client.alloc("double", n), client.alloc("double", n)
        client.write(xs, [1.0] * n)
        client.write(ys, [0.0] * n)
        assert call_code(client, SAXPY, "saxpy",
                         [n, 2.0, {"buf": xs}, {"buf": ys}],
                         chunk=(0, 2 ** 64 + 8)) == "bad-request"
        assert client.read(ys, n) == [0.0] * n
        client.free(xs)
        client.free(ys)


class TestCompileAndEntryErrors:
    def test_syntax_error_is_compile_error(self, client):
        assert call_code(client, "terra broken(", "broken") == \
            "compile-error"

    def test_type_error_is_compile_error(self, client):
        src = """
        terra bad(x : int) : int
          return x + "a string"
        end
        """
        assert call_code(client, src, "bad", [1]) == "compile-error"

    def test_unknown_entry_lists_what_was_defined(self, client):
        with pytest.raises(ServeError) as ei:
            client.call(SQ, "missing", [1.0])
        assert ei.value.code == "unknown-entry"
        assert "sq" in str(ei.value)

    def test_sandboxed_environment_hides_server_names(self, client):
        # tenant source cannot capture the server's modules by name
        src = """
        terra leak() : int
          return [os.getpid()]
        end
        """
        assert call_code(client, src, "leak") == "compile-error"

    def test_chunk_of_an_entry_with_no_loop_is_compile_error(self, client):
        # staging the entry's chunked twin refuses a kernel that returns
        # a value and ends in no loop
        with pytest.raises(ServeError) as ei:
            client.call(SQ, "sq", [1.0], chunk=(0, 4))
        assert ei.value.code == "compile-error"
        assert "chunked:" in str(ei.value)

    def test_wrong_arity_is_bad_request(self, client):
        assert call_code(client, SQ, "sq", [1.0, 2.0]) == "bad-request"

    def test_unsupported_return_type(self, client):
        src = """
        terra identity(p : &double) : &double
          return p
        end
        """
        buf = client.alloc("double", 2)
        assert call_code(client, src, "identity", [{"buf": buf}]) == \
            "unsupported"
        client.free(buf)


class TestRuntimeTraps:
    def test_trap_maps_to_the_trap_code(self, client):
        src = """
        terra div(a : int, b : int) : int
          return a / b
        end
        """
        assert client.call(src, "div", [10, 2]) == 5
        assert call_code(client, src, "div", [1, 0]) == "trap"

    def test_trapping_range_fails_only_its_own_request(self, tmp_path):
        """Two concurrent chunked requests: the range covering the poison
        iterate gets ``trap``; the other completes with its writes."""
        from .conftest import POISON
        cfg = ServeConfig(socket_path=str(tmp_path / "p.sock"), workers=4)
        n = 16
        with ServerThread(cfg) as srv:
            with srv.client(tenant="traps") as c:
                out = c.alloc("int64", n)
                c.write(out, [0] * n)
                args = [n, {"buf": out}]
                barrier = threading.Barrier(2)
                outcomes = {}

                def chunk_req(lo, hi):
                    with srv.client(tenant="traps") as cc:
                        barrier.wait()
                        try:
                            cc.call(POISON, "poison", args, chunk=(lo, hi))
                            outcomes[(lo, hi)] = "ok"
                        except ServeError as exc:
                            outcomes[(lo, hi)] = exc.code

                threads = [threading.Thread(target=chunk_req, args=rng)
                           for rng in [(0, 8), (8, 16)]]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join()
                assert outcomes[(0, 8)] == "trap"      # covers i == 7
                assert outcomes[(8, 16)] == "ok"
                # the healthy chunk's writes landed (1000 // (i-7): for
                # positive i - 7, truncation toward zero is floor)
                got = c.read(out, n)
                assert got[8:] == [1000 // (i - 7) for i in range(8, 16)]
                # the pool is not wedged: another call still works
                assert c.call(SQ, "sq", [5.0]) == 25.0


DIV = "terra div(a : int, b : int) : int return a / b end"
RATIO = "terra ratio(a : double, b : double) : double return a / b end"
IDENTITY = "terra identity(p : &double) : &double return p end"


class TestSameAnswerFromEitherThread:
    """A warm kernel's calls run on the event loop (test_inline.py); what
    goes wrong there must read exactly as it does from an executor
    thread, and leave the connection as usable.  Compiled kernels earn
    the loop; on the interpreter a call rarely fits the inline budget, so
    these take ``cbackend`` and skip with no compiler."""

    @pytest.mark.parametrize("name,source,entry,good,odd,code", [
        ("trap", DIV, "div", [10, 2], [1, 0], "trap"),
        ("ffi-error", SQ, "sq", [3.0], ["three"], "bad-request"),
        ("unsupported", IDENTITY, "identity", ["buf"], ["buf"],
         "unsupported"),
        ("nan", RATIO, "ratio", [1.0, 2.0], [0.0, 0.0], None),
        ("inf", RATIO, "ratio", [1.0, 2.0], [-1.0, 0.0], None),
    ])
    def test_cold_and_warm_responses_are_identical(
            self, cbackend, server, name, source, entry, good, odd, code):
        with server.client(tenant=f"either-{name}") as c:
            def get(counter):
                return c.stats()["counters"][f"serve.{counter}"]

            buf = {"buf": c.alloc("double", 2)}
            good, odd = ([buf if a == "buf" else a for a in args]
                         for args in (good, odd))
            line = protocol.encode({
                "op": "call", "tenant": c.tenant, "source": source,
                "entry": entry, "args": odd, "id": 1})
            traps = get("traps")
            offloaded = get("exec.offloaded")
            cold = c.send_raw(line)              # first call: the executor
            assert get("exec.offloaded") == offloaded + 1
            earn_the_loop(c, source, entry, good)
            inline = get("exec.inline")
            warm = c.send_raw(line)              # the same call: the loop
            assert get("exec.inline") == inline + 1
            assert protocol.encode(warm) == protocol.encode(cold)
            if code is None:
                assert warm["ok"] and warm["result"] == {
                    "float": "nan" if name == "nan" else "-inf"}
            else:
                assert warm["error"]["code"] == code
            assert get("traps") - traps == \
                (2 if name == "trap" else 0)
            assert c.ping()                      # the connection survives
            if name != "unsupported":
                c.call(source, entry, good)


@pytest.mark.usefixtures("cbackend")   # spin(N) takes 0.5 s in C
class TestAdmissionOverTheWire:
    SPIN = """
    terra spin(n : int64) : double
      var s : double = 0.0
      for i = 0, n do
        s = s + 1.0 / (1.0 + s)
      end
      return s
    end
    """
    N = 150_000_000  # ~0.5 s of serial dependent FP work

    def test_tenant_over_quota(self, tmp_path):
        cfg = ServeConfig(socket_path=str(tmp_path / "q.sock"), workers=4,
                          tenant_concurrency=1, queue_limit=64)
        with ServerThread(cfg) as srv:
            with srv.client(tenant="greedy") as warm:
                warm.call(self.SPIN, "spin", [1])  # compile outside timing
            started = threading.Event()
            done = []

            def long_call():
                with srv.client(tenant="greedy") as c:
                    started.set()
                    done.append(c.call(self.SPIN, "spin", [self.N]))

            t = threading.Thread(target=long_call)
            t.start()
            started.wait()
            import time
            time.sleep(0.1)  # let the long call be admitted
            with srv.client(tenant="greedy") as c:
                with pytest.raises(ServeError) as ei:
                    c.call(self.SPIN, "spin", [1])
                assert ei.value.code == "tenant-over-quota"
            # a fast-reject: it did not wait behind the running kernel
            assert t.is_alive()
            # a different tenant is still served while greedy spins
            with srv.client(tenant="patient") as c:
                assert c.call(SQ, "sq", [2.0]) == 4.0
            t.join()
            assert done and done[0] > 0

    def test_global_overload(self, tmp_path):
        cfg = ServeConfig(socket_path=str(tmp_path / "g.sock"), workers=4,
                          tenant_concurrency=8, queue_limit=1)
        with ServerThread(cfg) as srv:
            with srv.client(tenant="a") as warm:
                warm.call(self.SPIN, "spin", [1])
            started = threading.Event()

            def long_call():
                with srv.client(tenant="a") as c:
                    started.set()
                    c.call(self.SPIN, "spin", [self.N])

            t = threading.Thread(target=long_call)
            t.start()
            started.wait()
            import time
            time.sleep(0.1)
            with srv.client(tenant="b") as c:
                with pytest.raises(ServeError) as ei:
                    c.call(SQ, "sq", [1.0])
                assert ei.value.code == "overloaded"
            t.join()
