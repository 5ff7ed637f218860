"""The asyncio front door: accept, admit, compile, execute, respond.

One event loop owns all bookkeeping (tenants, warm pools, admission)
— every mutation of that state happens on the loop thread, so
none of it is locked.  The two kinds of real work leave the loop:

* **compilation** (parse → specialize → typecheck → emit) runs on the
  ``repro-serve-<i>`` executor threads; the gcc stage is then *awaited*
  on the loop (:meth:`~repro.backend.base.CompileTicket.await_built`), so
  a cold request occupies an executor thread only for the Python-side
  staging, never for the compiler run;
* **execution** (one ctypes call, GIL released) also runs on the
  executor, so a long kernel never stalls the accept loop; only a call
  whose kernel was just observed short, inside the arguments (and, for a
  chunked request, the range) it was observed with
  (:meth:`~repro.serve.state.WarmKernel.fits_inline`), runs on the loop,
  where it skips a hand-off costing many times the kernel.
  Spans are emitted on the thread that did the work, so the exported trace
  renders one lane per serve worker (`python -m repro.trace view`).

Tenant source is specialized against an **empty environment** (Terra
primitives and Python builtins only): a request's escapes cannot see the
server's modules or another tenant's state through lexical capture.  The
service trusts its local-socket clients with *compute* (escapes still
evaluate Python), but name capture is not part of the protocol surface.

Identical cold requests racing is handled serve-side too: the second
request for a (tenant, kernel) already compiling awaits the first's
future instead of staging again (``serve.compile_dedup``), mirroring
buildd's in-flight dedup one layer up.
"""

from __future__ import annotations

import asyncio
import os
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional

from .. import config as _config
from .. import trace as _trace
from ..buildd import service as _buildd_service
from ..errors import FFIError, TerraError, TrapError
from ..exec import current_policy
from ..trace.metrics import registry
from . import protocol
from .admission import Admission
from .protocol import ServeError
from .state import TenantState, WarmKernel, kernel_key


def default_socket_path() -> str:
    base = _config.get("REPRO_SERVE_SOCKET")
    if base:
        return base
    uid = os.getuid() if hasattr(os, "getuid") else 0
    return os.path.join(tempfile.gettempdir(), f"repro-serve-{uid}.sock")


@dataclass
class ServeConfig:
    """Server knobs (docs/SERVING.md); the ``python -m repro.serve``
    flags set these fields."""

    socket_path: Optional[str] = None     # unix socket (the default transport)
    port: Optional[int] = None            # TCP on 127.0.0.1 instead, if set
    workers: int = 0                      # executor threads (0: max(4, cpus))
    queue_limit: int = 1024               # global in-flight bound
    tenant_concurrency: int = 64          # per-tenant in-flight cap
    tenant_kernels: int = 32              # warm-pool quota per tenant
    max_request_bytes: int = 1 << 20      # per-line framing cap
    backend: Optional[str] = None         # None: the process default

    def resolved_workers(self) -> int:
        return self.workers if self.workers > 0 else max(4, os.cpu_count() or 1)


class ServeServer:
    """The multi-tenant compile-and-execute service."""

    def __init__(self, config: Optional[ServeConfig] = None):
        self.config = config or ServeConfig()
        self._tenants: dict[str, TenantState] = {}
        self._admission = Admission(self.config.queue_limit,
                                    self.config.tenant_concurrency)
        self._compiling: dict[tuple, asyncio.Future] = {}
        self._exec = ThreadPoolExecutor(
            max_workers=self.config.resolved_workers(),
            thread_name_prefix="repro-serve")
        self._server: Optional[asyncio.AbstractServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._started = time.time()
        self._connections = 0

    # -- lifecycle ----------------------------------------------------------
    async def start(self) -> str:
        """Bind and start serving; returns the bound address (socket path,
        or ``host:port``)."""
        self._loop = asyncio.get_running_loop()
        limit = self.config.max_request_bytes
        if self.config.port is not None:
            self._server = await asyncio.start_server(
                self._client_loop, host="127.0.0.1", port=self.config.port,
                limit=limit)
            port = self._server.sockets[0].getsockname()[1]
            self.config.port = port
            self.address = f"127.0.0.1:{port}"
        else:
            path = self.config.socket_path or default_socket_path()
            try:
                os.unlink(path)
            except OSError:
                pass
            self._server = await asyncio.start_unix_server(
                self._client_loop, path=path, limit=limit)
            self.config.socket_path = path
            self.address = path
        return self.address

    async def serve_forever(self) -> None:
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        self._exec.shutdown(wait=True)
        if self.config.socket_path:
            try:
                os.unlink(self.config.socket_path)
            except OSError:
                pass

    # -- per-connection loop ------------------------------------------------
    async def _client_loop(self, reader: asyncio.StreamReader,
                           writer: asyncio.StreamWriter) -> None:
        self._connections += 1
        registry().add("serve.connections")
        try:
            while True:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    # line exceeded the stream limit: answer, then close —
                    # the stream position is unrecoverable
                    writer.write(protocol.encode(protocol.error_response(
                        None, "oversized",
                        f"request exceeds "
                        f"{self.config.max_request_bytes} bytes")))
                    await writer.drain()
                    return
                if not line:
                    return
                if line.strip() == b"":
                    continue
                response = await self._handle_line(line)
                writer.write(protocol.encode(response))
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass
        except asyncio.CancelledError:
            # loop shutdown cancelled us mid-read: finish normally so the
            # streams teardown callback has nothing to log
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError,
                    asyncio.CancelledError):
                pass

    async def _handle_line(self, line: bytes) -> dict:
        req_id = None
        try:
            req = protocol.decode(line)
            req_id = req.get("id")
            return await self._dispatch(req, req_id)
        except ServeError as exc:
            registry().add("serve.errors")
            return protocol.error_response(req_id, exc.code, exc.message)
        except Exception as exc:  # never kill the connection loop
            registry().add("serve.errors")
            return protocol.error_response(
                req_id, "internal", f"{type(exc).__name__}: {exc}")

    # -- request dispatch ---------------------------------------------------
    async def _dispatch(self, req: dict, req_id) -> dict:
        op = protocol.field(req, "op", str, required=True)
        if op == "ping":
            return protocol.ok_response(req_id, "pong")
        if op == "stats":
            return protocol.ok_response(req_id, self.stats())
        tenant = self._tenant(protocol.field(req, "tenant", str,
                                             default="default"))
        if op == "call":
            return await self._op_call(req, req_id, tenant)
        if op == "alloc":
            buf = tenant.alloc(
                protocol.field(req, "dtype", str, required=True),
                protocol.field(req, "count", int, required=True))
            return protocol.ok_response(req_id, {"buf": buf.id,
                                                 "nbytes": buf.nbytes})
        if op == "write":
            n = tenant.write(
                protocol.field(req, "buf", int, required=True),
                protocol.field(req, "start", int, default=0),
                protocol.field(req, "values", list, required=True))
            return protocol.ok_response(req_id, n)
        if op == "read":
            values = tenant.read(
                protocol.field(req, "buf", int, required=True),
                protocol.field(req, "start", int, default=0),
                protocol.field(req, "count", int, required=True))
            return protocol.ok_response(req_id, values)
        if op == "free":
            tenant.free(protocol.field(req, "buf", int, required=True))
            return protocol.ok_response(req_id, True)
        raise ServeError("unknown-op", f"unknown op {op!r}")

    def _tenant(self, name: str) -> TenantState:
        state = self._tenants.get(name)
        if state is None:
            state = TenantState(name, self.config.tenant_kernels)
            self._tenants[name] = state
        return state

    # -- the call op --------------------------------------------------------
    async def _op_call(self, req: dict, req_id, tenant: TenantState) -> dict:
        source = protocol.field(req, "source", str, required=True)
        entry = protocol.field(req, "entry", str, required=True)
        raw_args = protocol.field(req, "args", list, default=[])
        rng = protocol.chunk_range(req)
        rejection = self._admission.try_admit(tenant)
        if rejection is not None:
            return protocol.error_response(req_id, *rejection)
        reg = registry()
        reg.add("serve.requests")
        tenant.requests += 1
        t_admit = time.perf_counter()
        try:
            kernel = await self._warm_kernel(tenant, source, entry,
                                             chunked=rng is not None)
            args = tenant.resolve_args(raw_args)
            if rng is not None:
                result = await self._call_chunked(tenant, kernel, args, rng,
                                                  t_admit)
            else:
                result = await self._call_plain(tenant, kernel, kernel.handle,
                                                args, t_admit)
            reg.record_time("serve.request", time.perf_counter() - t_admit)
            return protocol.ok_response(req_id, result)
        except TrapError as exc:
            reg.add("serve.traps")
            return protocol.error_response(req_id, "trap", str(exc))
        except ServeError as exc:
            reg.add("serve.errors")
            return protocol.error_response(req_id, exc.code, exc.message)
        except FFIError as exc:
            reg.add("serve.errors")
            return protocol.error_response(req_id, "bad-request", str(exc))
        except TerraError as exc:
            reg.add("serve.errors")
            return protocol.error_response(
                req_id, "compile-error", f"{type(exc).__name__}: {exc}")
        finally:
            self._admission.release(tenant)

    async def _call_plain(self, tenant: TenantState, kernel: WarmKernel,
                          call, args: list, t_admit: float):
        """Place and run ``call(*args)``: on the loop if ``kernel`` was
        just observed short inside these arguments, else on the executor."""
        inline = kernel.fits_inline(args)

        def run():
            """The call, on either thread; an error is timed, then carried."""
            if not inline:
                registry().record_time("serve.queue_wait",
                                       time.perf_counter() - t_admit)
            with _trace.span(f"serve.exec:{kernel.entry}", cat="serve",
                             tenant=tenant.name, key=kernel.key,
                             inline=inline) as span:
                t0 = time.perf_counter()
                try:
                    out = call(*args)
                except Exception as exc:
                    out = exc
                    span.set(error=type(exc).__name__)
                return out, time.perf_counter() - t0

        where = "inline" if inline else "offloaded"
        registry().add(f"serve.exec.{where}")
        tenant.placed[where] += 1
        out, seconds = run() if inline else \
            await self._loop.run_in_executor(self._exec, run)
        if kernel.observe(args, seconds, inline):
            registry().add("serve.inline.demoted")
            tenant.placed["demotions"] += 1
        if isinstance(out, Exception):
            raise out
        return protocol.jsonable_result(out, kernel.entry)

    async def _call_chunked(self, tenant: TenantState, kernel: WarmKernel,
                            args: list, rng: tuple[int, int], t_admit: float):
        """A chunked request is a call with a range: ``[lo, hi)`` leads the
        arguments the cost record sees, so the envelope bounds it too."""
        call = getattr(kernel.handle, "call_chunk", None)
        if not kernel.chunked or call is None:
            raise ServeError("unsupported",
                             f"{kernel.entry} has no chunked entry on this "
                             f"backend")
        return await self._call_plain(tenant, kernel, call, [*rng, *args],
                                      t_admit)

    # -- compilation (warm pool miss) ---------------------------------------
    async def _warm_kernel(self, tenant: TenantState, source: str,
                           entry: str, chunked: bool) -> WarmKernel:
        backend = self.config.backend
        if chunked:
            backend = "c"  # chunked entries exist only on the C backend
        # tiered kernels carry live tier state; keep them apart from any
        # ahead-of-time compile of the same source
        tiered = not chunked and current_policy().name == "tiered"
        ident = ("tiered" if tiered else (backend or "default"), entry,
                 chunked, source)
        kernel = tenant.kernels.get(ident)
        reg = registry()
        if kernel is not None:
            reg.add("serve.cache_hit")
            _trace.instant("serve.cache_hit", cat="serve",
                           tenant=tenant.name, key=kernel.key)
            return kernel
        compile_key = (tenant.name, ident)
        pending = self._compiling.get(compile_key)
        if pending is not None:
            reg.add("serve.compile_dedup")
            return await asyncio.shield(pending)
        fut = self._loop.create_future()
        self._compiling[compile_key] = fut
        try:
            kernel = await self._compile(tenant, ident, backend)
            evicted = tenant.kernels.put(ident, kernel)
            if evicted:
                reg.add("serve.evicted", len(evicted))
            fut.set_result(kernel)
            return kernel
        except BaseException as exc:
            fut.set_exception(exc)
            # mark the exception retrieved: if no dedup waiter ever awaits
            # this future, its GC must not log a spurious traceback
            fut.exception()
            raise
        finally:
            self._compiling.pop(compile_key, None)

    async def _compile(self, tenant: TenantState, ident: tuple,
                       backend: Optional[str]) -> WarmKernel:
        key_backend, entry, chunked, source = ident
        key = kernel_key(source, entry, chunked, key_backend)
        tiered = key_backend == "tiered"
        reg = registry()
        reg.add("serve.compile")
        t0 = time.perf_counter()

        def stage():
            """Executor-thread half: everything up to the buildd submit."""
            with _trace.span(f"serve.compile:{entry}", cat="serve",
                             tenant=tenant.name, key=key, chunked=chunked,
                             tiered=tiered):
                with _buildd_service.cache_namespace(tenant.name):
                    fn = self._resolve_entry(source, entry)
                    if chunked:
                        fn.mark_chunked()
                    if tiered:
                        # tier 0: the warm "handle" is the dispatcher
                        # itself — calls start interpreted, a hot one
                        # stages its C compile, and the pool entry speeds
                        # up in place (summary()["tiers"] says how far)
                        fn.dispatcher.compiled_handle("interp")
                        return fn, "tiered", None
                    from ..backend.base import resolve_backend
                    be = resolve_backend(backend)
                    return fn, be.name, fn.compile_async(be)

        fn, backend_name, ticket = await self._loop.run_in_executor(
            self._exec, stage)
        if ticket is None:
            handle = fn.dispatcher
        else:
            # the gcc run is awaited on the loop (buildd's async hook),
            # then the dlopen/ctypes binding goes back to the executor
            await ticket.await_built()
            with _buildd_service.cache_namespace(tenant.name):
                handle = await self._loop.run_in_executor(self._exec,
                                                          ticket.result)
        dt = time.perf_counter() - t0
        reg.record_time("serve.compile", dt)
        return WarmKernel(key, entry, fn, handle, chunked, tiered=tiered)

    @staticmethod
    def _resolve_entry(source: str, entry: str):
        """Stage tenant source in a clean environment and pick the entry
        point; every front-end failure becomes a protocol error."""
        from .. import Namespace, terra
        from ..core.env import Environment
        from ..core.function import TerraFunction
        from ..errors import TerraError as _TerraError
        env = Environment({}, {}, "<repro.serve sandbox>")
        try:
            defined = terra(source, env=env, filename=f"<serve:{entry}>")
        except _TerraError as exc:
            raise ServeError("compile-error",
                             f"{type(exc).__name__}: {exc}")
        if isinstance(defined, Namespace):
            fn = dict.get(defined, entry)
        else:
            fn = defined if getattr(defined, "name", None) == entry else None
        if not isinstance(fn, TerraFunction):
            have = sorted(defined) if isinstance(defined, Namespace) \
                else [getattr(defined, "name", "?")]
            raise ServeError(
                "unknown-entry",
                f"source defines no Terra function {entry!r} "
                f"(found: {', '.join(have)})")
        return fn

    # -- reporting ----------------------------------------------------------
    def stats(self) -> dict:
        reg = registry()
        return {
            "uptime_s": round(time.time() - self._started, 3),
            "address": getattr(self, "address", None),
            "connections": self._connections,
            "inflight": self._admission.inflight,
            "inflight_peak": self._admission.peak,
            "workers": self.config.resolved_workers(),
            "tenants": {name: t.summary()
                        for name, t in sorted(self._tenants.items())},
            "counters": {**reg.counters("serve."),
                         **reg.counters("parse.cache."),
                         **reg.counters("spec.memo.")},
            "timings": reg.timings("serve."),
        }


async def run_server(config: Optional[ServeConfig] = None,
                     ready=None) -> None:
    """Start a server and serve until cancelled (the ``python -m
    repro.serve`` entry).  ``ready``, if given, is called with the bound
    address once the socket is listening."""
    server = ServeServer(config)
    address = await server.start()
    if ready is not None:
        ready(address)
    try:
        await server.serve_forever()
    except asyncio.CancelledError:
        pass
    finally:
        await server.close()
