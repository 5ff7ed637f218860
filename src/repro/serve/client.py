"""The blocking client for :mod:`repro.serve`.

One socket, one request in flight at a time — deliberately the simplest
thing that exercises the server, because it is also the *model* of a
served user: the load generator opens thousands of these, and the tests
drive every protocol path through one.

>>> from repro.serve.client import ServeClient        # doctest: +SKIP
>>> c = ServeClient()                                  # doctest: +SKIP
>>> c.call("terra add(a : int, b : int) : int return a + b end",
...        "add", [2, 3])                              # doctest: +SKIP
5

Server-side errors raise :class:`~repro.serve.protocol.ServeError` with
the machine-readable ``code`` preserved, so callers can distinguish a
``trap`` from ``tenant-over-quota`` without string matching.
"""

from __future__ import annotations

import socket
import time
from typing import Optional

from . import protocol
from .protocol import ServeError
from .server import default_socket_path

#: the request heads a client keeps, one per (tenant, source, entry) called
REQUEST_HEADS = 64


class ServeClient:
    """A blocking newline-delimited-JSON client (one request at a time)."""

    def __init__(self, socket_path: Optional[str] = None,
                 host: Optional[str] = None, port: Optional[int] = None,
                 tenant: str = "default", timeout: float = 60.0):
        self.tenant = tenant
        self.timeout = timeout
        if port is not None:
            self._addr = ((host or "127.0.0.1"), port)
            self._family = socket.AF_INET
        else:
            self._addr = socket_path or default_socket_path()
            self._family = socket.AF_UNIX
        self._sock: Optional[socket.socket] = None
        self._file = None
        self._next_id = 1
        self._heads: dict[tuple, bytes] = {}

    # -- connection management ----------------------------------------------
    def connect(self) -> "ServeClient":
        if self._sock is None:
            sock = socket.socket(self._family, socket.SOCK_STREAM)
            sock.settimeout(self.timeout)
            sock.connect(self._addr)
            self._sock = sock
            self._file = sock.makefile("rb")
        return self

    def close(self) -> None:
        if self._file is not None:
            try:
                self._file.close()
            except OSError:
                pass
            self._file = None
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def __enter__(self) -> "ServeClient":
        return self.connect()

    def __exit__(self, *exc) -> None:
        self.close()

    # -- the request/response cycle ------------------------------------------
    def request(self, req: dict) -> dict:
        """Send one request object (given an ``id`` in place if it has
        none), wait for its response object.  Raises :class:`ServeError`
        when the server answers ``ok: false``, and ``ConnectionError``
        when the stream dies mid-cycle."""
        req.setdefault("id", self._next_id)
        self._next_id += 1
        return self._exchange(protocol.encode(req))

    def _exchange(self, line: bytes) -> dict:
        """Send one encoded request line and return its response object,
        raising what :meth:`request` documents."""
        self.connect()
        self._sock.sendall(line)
        reply = self._file.readline()
        if not reply:
            self.close()
            raise ConnectionError("server closed the connection")
        resp = protocol.decode(reply)
        if resp.get("ok"):
            return resp
        err = resp.get("error") or {}
        code = err.get("code", "internal")
        if code not in protocol.ERROR_CODES:
            code = "internal"
        # framing errors leave the connection unusable server-side
        if code in ("oversized", "bad-json"):
            self.close()
        raise ServeError(code, err.get("message", "unknown server error"))

    def send_raw(self, payload: bytes) -> dict:
        """Ship raw bytes (tests: malformed JSON, oversized lines) and
        read back one response object."""
        self.connect()
        self._sock.sendall(payload)
        line = self._file.readline()
        if not line:
            self.close()
            raise ConnectionError("server closed the connection")
        return protocol.decode(line)

    # -- convenience ops ----------------------------------------------------
    def ping(self) -> bool:
        return self.request({"op": "ping"})["result"] == "pong"

    def stats(self) -> dict:
        return self.request({"op": "stats"})["result"]

    def call(self, source: str, entry: str, args: Optional[list] = None,
             tenant: Optional[str] = None,
             chunk: Optional[tuple[int, int]] = None):
        """Call ``entry`` of ``source`` with ``args`` (a chunked call runs
        ``[lo, hi)`` of its final loop).  The request's compact JSON up to
        its arguments is encoded once per (tenant, source, entry), kept in
        a table of at most :data:`REQUEST_HEADS`, and each call appends the
        arguments, the range and the id to it: a client calls the kernels
        it has called before."""
        key = (tenant or self.tenant, source, entry)
        head = self._heads.get(key)
        if head is None:
            if len(self._heads) >= REQUEST_HEADS:      # the oldest goes
                del self._heads[next(iter(self._heads))]
            head = self._heads[key] = protocol.encode(
                {"op": "call", "tenant": key[0], "source": source,
                 "entry": entry})[:-2] + b',"args":'
        tail = protocol.dumps(list(args or []))
        if chunk is not None:
            tail += ',"chunk":[%d,%d]' % (int(chunk[0]), int(chunk[1]))
        line = head + (tail + ',"id":%d}\n' % self._next_id).encode()
        self._next_id += 1
        return protocol.from_wire_result(self._exchange(line)["result"])

    def alloc(self, dtype: str, count: int,
              tenant: Optional[str] = None) -> int:
        return self.request({"op": "alloc", "dtype": dtype, "count": count,
                             "tenant": tenant or self.tenant})["result"]["buf"]

    def write(self, buf: int, values: list, start: int = 0,
              tenant: Optional[str] = None) -> int:
        return self.request({"op": "write", "buf": buf, "start": start,
                             "values": list(values),
                             "tenant": tenant or self.tenant})["result"]

    def read(self, buf: int, count: int, start: int = 0,
             tenant: Optional[str] = None) -> list:
        raw = self.request({"op": "read", "buf": buf, "start": start,
                            "count": count,
                            "tenant": tenant or self.tenant})["result"]
        return [protocol.from_wire_result(v) for v in raw]

    def free(self, buf: int, tenant: Optional[str] = None) -> None:
        self.request({"op": "free", "buf": buf,
                      "tenant": tenant or self.tenant})


def wait_until_ready(socket_path: Optional[str] = None,
                     port: Optional[int] = None,
                     timeout: float = 30.0) -> None:
    """Poll until a server answers ``ping`` (startup synchronization for
    tests, the load generator, and CI scripts)."""
    deadline = time.monotonic() + timeout
    last: Optional[Exception] = None
    while time.monotonic() < deadline:
        try:
            with ServeClient(socket_path=socket_path, port=port,
                             timeout=5.0) as c:
                if c.ping():
                    return
        except (OSError, ConnectionError, ServeError) as exc:
            last = exc
        time.sleep(0.05)
    raise TimeoutError(f"no repro.serve server became ready within "
                       f"{timeout}s (last error: {last})")
