"""Fixtures for the serve test suite.

``server`` is one module-scoped live server (socket → asyncio →
executor → ctypes, the real thing); tests that need special knobs
(tiny admission caps, one-kernel pools) start their own
:class:`~repro.serve.testing.ServerThread` with a custom config.
"""

import pytest

from repro.serve import ServeConfig, ServeError, ServerThread
from repro.serve.state import INLINE_AFTER

SQ = """
terra sq(x : double) : double
  return x * x
end
"""

SAXPY = """
terra saxpy(n : int64, a : double, x : &double, y : &double) : {}
  for i = 0, n do
    y[i] = a * x[i] + y[i]
  end
end
"""

#: traps only where a chunk covers i == 7 (1000 / 0)
POISON = """
terra poison(n : int64, out : &int64) : {}
  for i = 0, n do
    out[i] = 1000 / (i - 7)
  end
end
"""


def saxpy_buffers(client, n, x=1.0):
    """Resident ``xs[i] = x * i`` and ``ys = 0`` for a :data:`SAXPY` call."""
    xs, ys = client.alloc("double", n), client.alloc("double", n)
    client.write(xs, [x * i for i in range(n)])
    client.write(ys, [0.0] * n)
    return xs, ys


def earn_the_loop(client, source, entry, args, limit=1000, chunk=None):
    """Call a kernel until its tenant has one that may run on the event
    loop: INLINE_AFTER fast runs, or more on a noisy host, where one slow run
    starts the count again.  Returns the calls made."""
    for calls in range(INLINE_AFTER, limit, INLINE_AFTER):
        for _ in range(INLINE_AFTER):
            try:
                client.call(source, entry, args, chunk=chunk)
            except ServeError as exc:       # a result JSON cannot carry
                if exc.code != "unsupported":
                    raise
        summary = client.stats()["tenants"][client.tenant]
        if summary["inline_eligible"]:
            return calls
    raise AssertionError(f"{entry} never earned the loop in {limit} calls")


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    sock = str(tmp_path_factory.mktemp("serve") / "serve.sock")
    with ServerThread(ServeConfig(socket_path=sock, workers=4)) as srv:
        yield srv


@pytest.fixture()
def client(server):
    with server.client(tenant="t-main") as c:
        yield c
