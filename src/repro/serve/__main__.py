"""``python -m repro.serve`` — run the service, or smoke-test it.

Default mode binds the socket and serves until interrupted::

    python -m repro.serve --socket /tmp/kernels.sock --workers 8

``--smoke`` instead starts an in-process server, drives a short
multi-tenant load against it (cold and warm scalar calls per tenant,
plus a saxpy over server-resident buffers sent as four concurrent
ranges, then one tenant's warm phase that must reach the event loop),
verifies the results and the serve counters, prints the stats snapshot,
and exits nonzero on any failure (tier-1 runs exactly this load:
``tests/serve/test_server_basic.py::TestSmokeLoad``); ``--trace
out.json`` additionally exports the Chrome trace of the run.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
from concurrent.futures import ThreadPoolExecutor

from .. import trace as _trace
from .protocol import ServeError
from .server import ServeConfig, run_server
from .state import INLINE_AFTER
from .testing import ServerThread


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="multi-tenant Terra kernel compile-and-execute service")
    p.add_argument("--socket", metavar="PATH",
                   help="unix socket path (default: $TMPDIR/repro-serve-"
                        "<uid>.sock, or REPRO_SERVE_SOCKET)")
    p.add_argument("--port", type=int,
                   help="serve TCP on 127.0.0.1:PORT instead of a unix "
                        "socket (0 picks a free port)")
    p.add_argument("--workers", type=int,
                   help="executor threads (default: max(4, cpu count))")
    p.add_argument("--queue", type=int,
                   help="global in-flight request bound")
    p.add_argument("--tenant-concurrency", type=int,
                   help="per-tenant in-flight request cap")
    p.add_argument("--tenant-kernels", type=int,
                   help="warm-kernel pool quota per tenant")
    p.add_argument("--backend", choices=["c", "interp"],
                   help="execution backend (default: process default)")
    p.add_argument("--smoke", action="store_true",
                   help="run the self-check load instead of serving")
    p.add_argument("--smoke-tenants", type=int, default=4, metavar="N",
                   help="tenants the smoke load drives (default: 4)")
    p.add_argument("--trace", metavar="PATH",
                   help="export a Chrome trace of the run to PATH")
    return p


def _config_from(ns: argparse.Namespace) -> ServeConfig:
    cfg = ServeConfig(backend=ns.backend)
    if ns.port is not None:
        cfg.port, cfg.socket_path = ns.port, None
    elif ns.socket:
        cfg.socket_path = ns.socket
    if ns.workers is not None:
        cfg.workers = max(1, ns.workers)
    if ns.queue is not None:
        cfg.queue_limit = max(1, ns.queue)
    if ns.tenant_concurrency is not None:
        cfg.tenant_concurrency = max(1, ns.tenant_concurrency)
    if ns.tenant_kernels is not None:
        cfg.tenant_kernels = max(1, ns.tenant_kernels)
    return cfg


# -- the smoke load -----------------------------------------------------------

SQ_SOURCE = """
terra sq(x : double) : double
  return x * x
end
"""

SAXPY_SOURCE = """
terra saxpy(n : int64, a : double, x : &double, y : &double) : {}
  for i = 0, n do
    y[i] = a * x[i] + y[i]
  end
end
"""


def _smoke_tenant(srv: ServerThread, tenant: str, n: int) -> list[str]:
    """One tenant's worth of load; returns the failures it observed."""
    bad: list[str] = []
    with srv.client(tenant=tenant) as c:
        # cold then warm scalar call
        for x in (3.0, 4.0):
            got = c.call(SQ_SOURCE, "sq", [x])
            if got != x * x:
                bad.append(f"{tenant}: sq({x}) returned {got!r}")
        # server-resident buffers + one saxpy as four concurrent ranges
        xs = c.alloc("double", n)
        ys = c.alloc("double", n)
        c.write(xs, [float(i) for i in range(n)])
        c.write(ys, [1.0] * n)
        args = [n, 2.0, {"buf": xs}, {"buf": ys}]
        quarter = n // 4
        cuts = [(i * quarter, n if i == 3 else (i + 1) * quarter)
                for i in range(4)]

        def one_chunk(rng):
            with srv.client(tenant=tenant) as cc:
                cc.call(SAXPY_SOURCE, "saxpy", args, chunk=rng)

        with ThreadPoolExecutor(max_workers=4) as pool:
            for fut in [pool.submit(one_chunk, rng) for rng in cuts]:
                fut.result()
        got = c.read(ys, n)
        want = [2.0 * i + 1.0 for i in range(n)]
        if got != want:
            bad.append(f"{tenant}: saxpy mismatch "
                       f"(first difference at index "
                       f"{next(i for i, (g, w) in enumerate(zip(got, want)) if g != w)})")
        c.free(xs)
        c.free(ys)
        # a trap must come back as the 'trap' error code, not a hang
        try:
            c.call("terra boom(x : int) : int return 1 / (x - x) end",
                   "boom", [5])
            bad.append(f"{tenant}: expected a trap, got a result")
        except ServeError as exc:
            if exc.code != "trap":
                bad.append(f"{tenant}: trap surfaced as {exc.code!r}")
    return bad


def run_smoke(config: ServeConfig, tenants: int, trace_out=None) -> int:
    _trace.enable()
    n = 64
    failures: list[str] = []
    with ServerThread(config) as srv:
        print(f"serve-smoke: server on {srv.address}, "
              f"{tenants} tenants", flush=True)
        with ThreadPoolExecutor(max_workers=tenants) as pool:
            futs = [pool.submit(_smoke_tenant, srv, f"tenant-{i}", n)
                    for i in range(tenants)]
            for fut in futs:
                failures.extend(fut.result())
        # warm phase: one quiet connection, long enough to earn the loop
        with srv.client(tenant="tenant-0") as c:
            for x in range(2 * INLINE_AFTER):
                if c.call(SQ_SOURCE, "sq", [float(x)]) != float(x * x):
                    failures.append(f"warm phase: sq({x}) is wrong")
        stats = srv.stats()
        counters = stats.get("counters", {})
        placed = {k: sum(t[k] for t in stats["tenants"].values())
                  for k in ("inline", "offloaded", "demotions")}
        if not placed["inline"] or placed["demotions"]:
            failures.append(f"warm phase placement: {placed}")
        # every tenant's second sq call must have hit the warm pool
        if counters.get("serve.cache_hit", 0) < tenants:
            failures.append(
                f"warm pool never hit: serve.cache_hit = "
                f"{counters.get('serve.cache_hit', 0)} < {tenants}")
        if counters.get("serve.traps", 0) < tenants:
            failures.append("trap requests were not counted")
        if len(stats.get("tenants", {})) < tenants:
            failures.append(
                f"expected {tenants} tenants in stats, saw "
                f"{len(stats.get('tenants', {}))}")
        print(json.dumps(stats, indent=2, default=str), flush=True)
        print("serve.exec: inline={inline} offloaded={offloaded} "
              "demoted={demotions}".format(**placed), flush=True)
    if trace_out:
        path = _trace.export_chrome(trace_out)
        print(f"serve-smoke: trace written to {path}", flush=True)
    if failures:
        for f in failures:
            print(f"serve-smoke FAIL: {f}", file=sys.stderr, flush=True)
        return 1
    print("serve-smoke: OK", flush=True)
    return 0


def main(argv=None) -> int:
    ns = _build_parser().parse_args(argv)
    config = _config_from(ns)
    if ns.smoke:
        return run_smoke(config, max(1, ns.smoke_tenants), ns.trace)
    if ns.trace:
        _trace.enable()

    def ready(address: str) -> None:
        print(f"repro.serve listening on {address}", flush=True)

    try:
        asyncio.run(run_server(config, ready=ready))
    except KeyboardInterrupt:
        pass
    finally:
        if ns.trace:
            print(f"trace written to {_trace.export_chrome(ns.trace)}",
                  flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
