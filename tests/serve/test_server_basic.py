"""End-to-end happy paths over a live server (socket → loop → executor)."""

import threading

from repro.serve import ServeConfig, ServerThread

from .conftest import SAXPY, SQ, earn_the_loop


def counter(source, name):
    """One ``serve.*`` counter of the server behind ``source`` (a client
    or a :class:`ServerThread`), as its ``stats`` publishes it."""
    return source.stats()["counters"][name]


class TestCalls:
    def test_ping_and_stats(self, client):
        assert client.ping()
        stats = client.stats()
        assert stats["workers"] >= 1
        assert "counters" in stats and "tenants" in stats

    def test_cold_then_warm_scalar_call(self, client):
        before = counter(client, "serve.cache_hit")
        assert client.call(SQ, "sq", [3.0], tenant="warmth") == 9.0
        assert client.call(SQ, "sq", [4.0], tenant="warmth") == 16.0
        assert counter(client, "serve.cache_hit") == before + 1

    def test_multi_definition_source_selects_the_entry(self, client):
        src = """
        terra first(x : int) : int
          return x + 1
        end
        terra second(x : int) : int
          return x * 10
        end
        """
        assert client.call(src, "second", [4]) == 40
        assert client.call(src, "first", [4]) == 5

    def test_buffer_round_trip_through_a_kernel(self, client):
        n = 16
        xs = client.alloc("double", n)
        ys = client.alloc("double", n)
        client.write(xs, [float(i) for i in range(n)])
        client.write(ys, [1.0] * n)
        client.call(SAXPY, "saxpy", [n, 3.0, {"buf": xs}, {"buf": ys}])
        assert client.read(ys, n) == [3.0 * i + 1.0 for i in range(n)]
        client.free(xs)
        client.free(ys)

    def test_chunked_call_covers_exactly_the_range(self, client):
        n = 32
        xs = client.alloc("double", n)
        ys = client.alloc("double", n)
        client.write(xs, [1.0] * n)
        client.write(ys, [0.0] * n)
        args = [n, 2.0, {"buf": xs}, {"buf": ys}]
        client.call(SAXPY, "saxpy", args, chunk=(0, 10))
        got = client.read(ys, n)
        assert got[:10] == [2.0] * 10 and got[10:] == [0.0] * 22
        client.free(xs)
        client.free(ys)


class TestTenancy:
    def test_tenants_do_not_share_buffers(self, server):
        with server.client(tenant="alice") as alice, \
                server.client(tenant="bob") as bob:
            buf = alice.alloc("double", 8)
            alice.write(buf, [5.0] * 8)
            from repro.serve import ServeError
            try:
                bob.read(buf, 8)
                raise AssertionError("bob read alice's buffer")
            except ServeError as exc:
                assert exc.code == "unknown-buffer"

    def test_tenants_have_independent_warm_pools(self, server):
        src = """
        terra twice(x : int) : int
          return x + x
        end
        """
        before = counter(server, "serve.compile")
        with server.client(tenant="pool-a") as a:
            assert a.call(src, "twice", [21]) == 42
        with server.client(tenant="pool-b") as b:
            assert b.call(src, "twice", [21]) == 42
        # both tenants staged their own kernel (buildd dedups the gcc run
        # one layer down, but the warm pools are private by design)
        assert counter(server, "serve.compile") == before + 2

    def test_stats_reports_per_tenant_summaries(self, server):
        stats = server.stats()
        pools = stats["tenants"]
        assert "pool-a" in pools and "pool-b" in pools
        assert pools["pool-a"]["kernels"] >= 1

    def test_stats_counts_the_structural_memo(self, server, cbackend):
        """pool-b staged the structure pool-a had just compiled."""
        assert server.stats()["counters"]["spec.memo.hits"] >= 1


class TestWarmPoolEviction:
    def test_quota_one_evicts_and_recompiles(self, tmp_path):
        cfg = ServeConfig(socket_path=str(tmp_path / "e.sock"), workers=2,
                          tenant_kernels=1)
        k1 = "terra one(x : int) : int return x + 1 end"
        k2 = "terra two(x : int) : int return x + 2 end"
        with ServerThread(cfg) as srv:
            with srv.client(tenant="evictee") as c:
                before = counter(c, "serve.compile")
                assert c.call(k1, "one", [0]) == 1
                assert c.call(k2, "two", [0]) == 2   # evicts one
                assert c.call(k1, "one", [0]) == 1   # recompile (staging)
                assert counter(c, "serve.compile") == before + 3
                summary = c.stats()["tenants"]["evictee"]
                assert summary["kernels"] == 1
                assert summary["kernel_evictions"] == 2

    def test_an_evicted_kernel_compiles_and_earns_the_loop_again(
            self, tmp_path, cbackend):
        cfg = ServeConfig(socket_path=str(tmp_path / "e.sock"), workers=2,
                          tenant_kernels=1, backend="c")
        k1 = "terra one(x : int) : int return x + 1 end"
        k2 = "terra two(x : int) : int return x + 2 end"
        calls = 0
        with ServerThread(cfg) as srv:
            with srv.client(tenant="evictee") as c:
                for _ in range(2):
                    compiled = counter(c, "serve.compile")
                    calls += earn_the_loop(c, k1, "one", [0])
                    assert counter(c, "serve.compile") == compiled + 1
                    inline = counter(c, "serve.exec.inline")
                    assert c.call(k1, "one", [0]) == 1
                    assert counter(c, "serve.exec.inline") == inline + 1
                    assert c.call(k2, "two", [0]) == 2      # evicts one
                    calls += 2
                counters = c.stats()["counters"]
        assert counters["serve.compile"] == counters["serve.evicted"] + 1 \
            == 4
        assert counters["serve.exec.inline"] + \
            counters["serve.exec.offloaded"] == \
            counters["serve.requests"] == calls


class TestConcurrentClients:
    def test_many_connections_interleave(self, server):
        errors = []

        def worker(i):
            try:
                with server.client(tenant=f"conc-{i % 3}") as c:
                    for x in range(4):
                        assert c.call(SQ, "sq", [float(x)]) == float(x * x)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors

    def test_identical_cold_kernels_dedup_server_side(self, tmp_path):
        cfg = ServeConfig(socket_path=str(tmp_path / "d.sock"), workers=4)
        src = """
        terra dedup_me(x : double) : double
          return x + 0.5
        end
        """
        with ServerThread(cfg) as srv:
            before = counter(srv, "serve.compile_dedup")
            barrier = threading.Barrier(4)
            results = []

            def racer():
                with srv.client(tenant="race") as c:
                    barrier.wait()
                    results.append(c.call(src, "dedup_me", [1.0]))

            threads = [threading.Thread(target=racer) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert results == [1.5] * 4
            # at least one of the four racers joined an in-flight staging
            assert counter(srv, "serve.compile_dedup") > before


class TestSmokeLoad:
    def test_smoke_load_passes_and_writes_a_valid_trace(self, tmp_path,
                                                        cbackend):
        """What ``python -m repro.serve --smoke --trace OUT`` runs."""
        from repro import trace
        from repro.serve.__main__ import run_smoke
        from repro.trace.__main__ import main as trace_cli
        out = str(tmp_path / "serve-trace.json")
        config = ServeConfig(socket_path=str(tmp_path / "smoke.sock"))
        try:
            assert run_smoke(config, tenants=2, trace_out=out) == 0
        finally:  # run_smoke turns tracing on for the process
            trace.disable()
            trace.clear()
        assert trace_cli(["validate", out]) == 0
