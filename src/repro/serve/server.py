"""The asyncio front door: accept, admit, compile, execute, respond.

One event loop owns all bookkeeping (tenants, warm pools, admission, the
``serve.*`` counts ``stats`` publishes) — all of it mutated on the loop
thread only, so none of it is locked, and a request that waits for no
compile or executor is answered in the frame that decoded it.  The two
kinds of real work leave the loop:

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
from time import perf_counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from types import CoroutineType
from typing import Optional

from .. import config as _config
from .. import trace as _trace
from ..buildd import service as _buildd_service
from ..errors import FFIError, TerraError, TrapError
from ..exec import current_policy
from ..trace.metrics import fold_time, registry
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
        self._counts = dict.fromkeys((
            "serve.connections", "serve.compile", "serve.compile_dedup",
            "serve.traps", "serve.errors"), 0)
        self._timings: dict[str, dict] = {}

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
        self._counts["serve.connections"] += 1
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
                response = self._handle_line(line)
                if type(response) is CoroutineType:   # the request waits
                    response = await response
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

    # -- request dispatch ---------------------------------------------------
    def _handle_line(self, line: bytes):
        """One request line's response, or the coroutine of one that waits."""
        req_id = None
        try:
            req = protocol.decode(line)
            req_id = req.get("id")
            op = protocol.field(req, "op", str, required=True)
            if op == "ping":
                return protocol.ok_response(req_id, "pong")
            if op == "stats":
                return protocol.ok_response(req_id, self.stats())
            tenant = self._tenant(protocol.field(req, "tenant", str,
                                                 default="default"))
            if op == "call":
                return self._op_call(req, req_id, tenant)
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
        except Exception as exc:  # never kill the connection loop
            return self._failed(req_id, exc)

    def _failed(self, req_id, exc: Exception) -> dict:
        """The error-code mapping, for every op on either path."""
        if isinstance(exc, TrapError):
            self._counts["serve.traps"] += 1
            return protocol.error_response(req_id, "trap", str(exc))
        self._counts["serve.errors"] += 1
        if isinstance(exc, ServeError):
            return protocol.error_response(req_id, exc.code, exc.message)
        if isinstance(exc, FFIError):
            return protocol.error_response(req_id, "bad-request", str(exc))
        code = "compile-error" if isinstance(exc, TerraError) else "internal"
        return protocol.error_response(req_id, code,
                                       f"{type(exc).__name__}: {exc}")

    def _tenant(self, name: str) -> TenantState:
        state = self._tenants.get(name)
        if state is None:
            state = TenantState(name, self.config.tenant_kernels)
            self._tenants[name] = state
        return state

    # -- the call op --------------------------------------------------------
    def _op_call(self, req: dict, req_id, tenant: TenantState):
        source = protocol.field(req, "source", str, required=True)
        entry = protocol.field(req, "entry", str, required=True)
        raw_args = protocol.field(req, "args", list, default=[])
        rng = protocol.chunk_range(req)
        rejection = self._admission.try_admit(tenant)
        if rejection is not None:
            return protocol.error_response(req_id, *rejection)
        tenant.requests += 1
        t_admit = perf_counter()
        waits = False
        try:
            kernel = self._warm_kernel(tenant, source, entry, rng is not None)
            result = self._call_kernel(tenant, kernel, raw_args, rng, t_admit)
            if type(result) is CoroutineType:
                waits = True
                return self._answer_later(req_id, tenant, result)
            return protocol.ok_response(req_id, result)
        except Exception as exc:
            return self._failed(req_id, exc)
        finally:
            if not waits:
                self._admission.release(tenant)

    async def _answer_later(self, req_id, tenant: TenantState, pending):
        try:
            return protocol.ok_response(req_id, await pending)
        except Exception as exc:
            return self._failed(req_id, exc)
        finally:
            self._admission.release(tenant)

    async def _call_compiled(self, tenant, miss, raw_args, rng, t_admit):
        result = self._call_kernel(tenant, await miss, raw_args, rng, t_admit)
        return await result if type(result) is CoroutineType else result

    def _call_kernel(self, tenant: TenantState, kernel: WarmKernel,
                     raw_args: list, rng, t_admit: float):
        """Place and run the call: on the loop, answered here, if ``kernel``
        was just observed short inside these arguments; else on the
        executor, through the coroutine returned.  A chunked request is a
        call with a range: ``[lo, hi)`` leads the arguments the cost record
        sees, so the envelope bounds it too."""
        if type(kernel) is not WarmKernel:   # a miss: call once it is warm
            return self._call_compiled(tenant, kernel, raw_args, rng, t_admit)
        args = tenant.resolve_args(raw_args)
        call = kernel.handle     # a chunked kernel: the entry's twin
        if rng is not None:
            args = [*rng, *args]
        if not kernel.fits_inline(args):
            tenant.placed["offloaded"] += 1
            return self._call_offloaded(tenant, kernel, call, args, t_admit)
        tenant.placed["inline"] += 1
        return self._ran(tenant, kernel, args, True, t_admit,
                         *self._run(tenant, kernel, call, args, True, t_admit))

    async def _call_offloaded(self, tenant, kernel, call, args, t_admit):
        ran = await self._loop.run_in_executor(
            self._exec, self._run, tenant, kernel, call, args, False, t_admit)
        return self._ran(tenant, kernel, args, False, t_admit, *ran)

    @staticmethod
    def _run(tenant: TenantState, kernel: WarmKernel, call, args: list,
             inline: bool, t_admit: float):
        """The call on either thread, in a ``serve.exec`` span if tracing:
        its outcome (an error is carried), seconds and wait since admission."""
        span = _trace.span(kernel.span_name, cat="serve", tenant=tenant.name,
                           key=kernel.key, inline=inline) \
            if _trace._enabled else None
        t0 = perf_counter()
        try:
            out = call(*args)
        except Exception as exc:
            out = exc
        t1 = perf_counter()
        if span is not None:
            if isinstance(out, Exception):
                span.set(error=type(out).__name__)
            span.__exit__(None, None, None)
        return out, t1 - t0, t0 - t_admit

    def _ran(self, tenant: TenantState, kernel: WarmKernel, args: list,
             inline: bool, t_admit: float, out, seconds: float, queued: float):
        """Back on the loop: record the run, then answer or raise."""
        if not inline:
            fold_time(self._timings, "serve.queue_wait", queued)
        if kernel.observe(args, seconds, inline):
            tenant.placed["demotions"] += 1
        if isinstance(out, Exception):
            raise out
        result = protocol.jsonable_result(out, kernel.entry)
        fold_time(self._timings, "serve.request", perf_counter() - t_admit)
        return result

    # -- compilation (warm pool miss) ---------------------------------------
    def _warm_kernel(self, tenant: TenantState, source: str, entry: str,
                     chunked: bool):
        """The resident kernel, or on a miss the compile to await."""
        backend = self.config.backend
        # tiered kernels carry live tier state; keep them apart from any
        # ahead-of-time compile of the same source
        tiered = current_policy().name == "tiered"
        ident = ("tiered" if tiered else (backend or "default"), entry,
                 chunked, source)
        kernel = tenant.kernels.get(ident)
        if kernel is not None:
            if _trace._enabled:
                _trace.instant("serve.cache_hit", cat="serve",
                               tenant=tenant.name, key=kernel.key)
            return kernel
        compile_key = (tenant.name, ident)
        pending = self._compiling.get(compile_key)
        if pending is not None:
            self._counts["serve.compile_dedup"] += 1
            return asyncio.shield(pending)
        fut = self._compiling[compile_key] = self._loop.create_future()
        return self._compile(tenant, ident, backend, fut)

    async def _compile(self, tenant: TenantState, ident: tuple,
                       backend: Optional[str], fut) -> WarmKernel:
        """Stage a missed kernel, make it resident and resolve ``fut``."""
        key_backend, entry, chunked, source = ident
        key = kernel_key(source, entry, chunked, key_backend)
        tiered = key_backend == "tiered"
        self._counts["serve.compile"] += 1
        t0 = perf_counter()

        def stage():
            """Executor-thread half: everything up to the buildd submit."""
            with _trace.span(f"serve.compile:{entry}", cat="serve",
                             tenant=tenant.name, key=key, chunked=chunked,
                             tiered=tiered):
                with _buildd_service.cache_namespace(tenant.name):
                    fn = self._resolve_entry(source, entry)
                    if chunked:     # the call takes [lo, hi) first
                        fn = fn.chunked
                    if tiered:
                        # tier 0: the warm "handle" is the function, whose
                        # call slot starts interpreted, a hot call
                        # stages its C compile, and the pool entry speeds
                        # up in place (summary()["tiers"] says how far)
                        fn.dispatcher.compiled_handle("interp")
                        return fn, "tiered", None
                    from ..backend.base import resolve_backend
                    be = resolve_backend(backend)
                    return fn, be.name, fn.compile_async(be)

        try:
            fn, backend_name, ticket = await self._loop.run_in_executor(
                self._exec, stage)
            if ticket is None:
                handle = fn
            else:
                # the gcc run is awaited on the loop (buildd's async hook),
                # then the dlopen/ctypes binding goes back to the executor
                await ticket.await_built()
                with _buildd_service.cache_namespace(tenant.name):
                    handle = await self._loop.run_in_executor(self._exec,
                                                              ticket.result)
            kernel = WarmKernel(key, entry, fn, handle, tiered=tiered)
            tenant.kernels.put(ident, kernel)
        except BaseException as exc:
            fut.set_exception(exc)
            # mark the exception retrieved: if no dedup waiter ever awaits
            # this future, its GC must not log a spurious traceback
            fut.exception()
            raise
        finally:
            del self._compiling[(tenant.name, ident)]
        fold_time(self._timings, "serve.compile", perf_counter() - t0)
        fut.set_result(kernel)
        return kernel

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
        tenants = {name: t.summary()
                   for name, t in sorted(self._tenants.items())}
        return {
            "uptime_s": round(time.time() - self._started, 3),
            "address": getattr(self, "address", None),
            "connections": self._counts["serve.connections"],
            "inflight": self._admission.inflight,
            "inflight_peak": self._admission.peak,
            "workers": self.config.resolved_workers(),
            "tenants": tenants,
            "counters": {
                "serve.inflight_peak": self._admission.peak,
                **self._admission.rejected,
                **self._counts,
                **{name: sum(t[k] for t in tenants.values()) for name, k in (
                    ("serve.requests", "requests"),
                    ("serve.cache_hit", "kernel_hits"),
                    ("serve.evicted", "kernel_evictions"),
                    ("serve.exec.inline", "inline"),
                    ("serve.exec.offloaded", "offloaded"),
                    ("serve.inline.demoted", "demotions"))},
                **registry().counters("parse.cache."),
                **registry().counters("spec.memo.")},
            "timings": {name: dict(t) for name, t in self._timings.items()},
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
