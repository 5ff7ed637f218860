"""repro.serve — the multi-tenant kernel compile-and-execute service.

Terra's thesis is that kernels are *data*: programs construct, specialize
and compile them at runtime.  This package takes the obvious next step
and puts that runtime behind a socket — a long-running server that
accepts (Terra source, entry point, arguments, tenant id) as
newline-delimited JSON over a local socket, compiles through the shared
buildd dedup/artifact-cache path, keeps per-tenant pools of warm compiled
kernels, and executes with the GIL released on a worker pool.

The moving parts, one module each:

* :mod:`.protocol` — the wire format, the closed error-code set, and
  argument/result marshalling rules;
* :mod:`.state`   — per-tenant state: warm-kernel LRU pools and
  server-resident typed buffers (pointers cannot cross JSON);
* :mod:`.admission` — load shedding: a global in-flight bound and
  per-tenant concurrency caps, both fast-rejecting;
* :mod:`.server`  — the asyncio front door tying those together: every
  call, whole or one ``chunk: [lo, hi)`` range of a chunk-marked kernel,
  is placed on the loop or the worker pool by what its kernel cost last;
* :mod:`.client`  — a small blocking client (tests, load generator);
* :mod:`.testing` — an in-process server-on-a-thread harness.

Start a server with ``python -m repro.serve`` (see docs/SERVING.md), or
in-process::

    from repro.serve import ServeConfig, ServerThread
    with ServerThread(ServeConfig(socket_path="/tmp/kernels.sock")) as srv:
        with srv.client(tenant="alice") as c:
            c.call("terra sq(x : double) : double return x * x end",
                   "sq", [3.0])
"""

from .client import ServeClient, wait_until_ready
from .protocol import ERROR_CODES, ServeError
from .server import ServeConfig, ServeServer, default_socket_path, run_server
from .testing import ServerThread

__all__ = [
    "ERROR_CODES",
    "ServeClient",
    "ServeConfig",
    "ServeError",
    "ServeServer",
    "ServerThread",
    "default_socket_path",
    "run_server",
    "wait_until_ready",
]
