"""A chunked request is a call with a range: concurrent ranges of one
kernel are independent calls over the tenant's own buffers (where each
runs is test_inline.py's subject; per-range traps, test_server_errors.py's)."""

import threading

from .conftest import SAXPY, saxpy_buffers


def run_concurrent(n_threads, fn):
    barrier = threading.Barrier(n_threads)
    errors = []

    def wrapped(i):
        try:
            barrier.wait()
            fn(i)
        except Exception as exc:  # pragma: no cover
            errors.append(exc)

    threads = [threading.Thread(target=wrapped, args=(i,))
               for i in range(n_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors


class TestConcurrentRanges:     # the entry's chunked twin, on any backend
    def test_ranges_compose_to_the_full_range_call(self, server):
        n, parts, rounds = 64, 4, 5
        step = n // parts
        with server.client(tenant="ranges-compose") as c:
            xs, ys = saxpy_buffers(c, n)
            args = [n, 2.0, {"buf": xs}, {"buf": ys}]

            def send(i):
                with server.client(tenant="ranges-compose") as cc:
                    for _ in range(rounds):
                        cc.call(SAXPY, "saxpy", args,
                                chunk=(i * step, (i + 1) * step))

            run_concurrent(parts, send)
            # every range ran exactly `rounds` times, nothing ran twice
            assert c.read(ys, n) == [2.0 * rounds * i for i in range(n)]

    def test_distinct_arguments_write_distinct_buffers(self, server):
        n = 16
        with server.client(tenant="ranges-apart") as c:
            xs, ys = saxpy_buffers(c, n)
            zs = c.alloc("double", n)
            c.write(zs, [0.0] * n)

            def send(i):
                out = ys if i == 0 else zs
                with server.client(tenant="ranges-apart") as cc:
                    cc.call(SAXPY, "saxpy",
                            [n, float(i + 1), {"buf": xs}, {"buf": out}],
                            chunk=(0, n))

            run_concurrent(2, send)
            assert c.read(ys, n) == [1.0 * i for i in range(n)]
            assert c.read(zs, n) == [2.0 * i for i in range(n)]

    def test_tenants_never_see_each_others_buffers(self, server):
        # same kernel, same range, same buffer ids: each tenant's own data
        n = 8
        bufs = {}
        for tenant, x in (("ranges-red", 1.0), ("ranges-blue", 10.0)):
            with server.client(tenant=tenant) as c:
                bufs[tenant] = saxpy_buffers(c, n, x)

        def send(i):
            tenant = ("ranges-red", "ranges-blue")[i]
            xs, ys = bufs[tenant]
            with server.client(tenant=tenant) as cc:
                cc.call(SAXPY, "saxpy", [n, 1.0, {"buf": xs}, {"buf": ys}],
                        chunk=(0, n))

        run_concurrent(2, send)
        for tenant, x in (("ranges-red", 1.0), ("ranges-blue", 10.0)):
            with server.client(tenant=tenant) as c:
                assert c.read(bufs[tenant][1], n) == [x * i for i in range(n)]
