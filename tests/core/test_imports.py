"""What a fresh process loads: ``import repro``, staging and calls with
Python scalars, and a serve server whose traffic is scalar, all run
without numpy.  An array can only come from a process that has imported
numpy, so the modules that handle one look it up in ``sys.modules``;
the C call plan of a function with a pointer parameter imports it when
it is made, so an array that arrives later still takes the plan's fast
path.

Each case runs in a fresh child with its own artifact cache: the test
process itself imported numpy long ago.
"""

import json
import os
import subprocess
import sys
import textwrap

import pytest

import repro

SRC = os.path.dirname(os.path.dirname(repro.__file__))


def run_child(tmp_path, script: str, *argv: str) -> dict:
    """Run ``script`` in a fresh interpreter; it prints one JSON line."""
    path = tmp_path / "child.py"     # @terra reads its def from a real file
    path.write_text(textwrap.dedent(script))
    env = dict(os.environ, REPRO_TERRA_CACHE=str(tmp_path / "cache"),
               PYTHONPATH=os.pathsep.join(
                   [SRC] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    done = subprocess.run([sys.executable, str(path), *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.fixture(params=["interp", "c"])
def backend_name(request):
    if request.param == "c":
        request.getfixturevalue("cbackend")     # skips where there is no gcc
    return request.param


SCALARS = """
    import json, sys

    import repro
    from repro import float64, int32, quote_, symbol, terra
    from repro.exec import policy_override

    backend = sys.argv[1]
    after_import = "numpy" in sys.modules
    k, f, flag = 3, 2.5, True
    a, s = symbol(int32, "a"), symbol(int32, "s")
    body = quote_("var [s] = [a] * [k]", env={"s": s, "a": a, "k": k})
    quoted = terra('''
    terra quoted([a]) : int
      [body]
      return [s] + 1
    end
    ''')

    @terra
    def decorated(x: int32, y: float64) -> float64:
        if {flag}:
            return x + {k} + y * {f}
        return 0.0

    results = [quoted.compile(backend)(2), decorated.compile(backend)(2, 3.0)]
    with policy_override(backend):
        results += [quoted(2), decorated(2, 3.0)]
    print(json.dumps({"after_import": after_import, "results": results,
                      "numpy": "numpy" in sys.modules}))
"""


def test_scalar_staging_and_calls_leave_numpy_unloaded(tmp_path,
                                                       backend_name):
    out = run_child(tmp_path, SCALARS, backend_name)
    assert out == {"after_import": False, "results": [7, 12.5, 7, 12.5],
                   "numpy": False}


LATE = """
    import ctypes, json, struct, sys

    if sys.argv[2] == "early":
        import numpy

    from repro import terra
    from repro.core import types as T
    from repro.ffi import convert
    from repro.trace.metrics import registry

    h = terra('''
    terra scale(p : &double, n : int, a : double) : double
      var s = 0.0
      for i = 0, n do
        p[i] = p[i] * a
        s = s + p[i]
      end
      return s
    end
    ''').compile(sys.argv[1])
    out = {"before_first_call": "numpy" in sys.modules}
    raw = bytearray(struct.pack("4d", 1, 2, 3, 4))   # converted: a copy
    cbuf = (ctypes.c_double * 4)(1, 2, 3, 4)         # the storage itself
    out["bytes"] = [h(raw, 4, 2.0), list(struct.unpack("4d", raw))]
    out["ctypes"] = [h(cbuf, 4, 2.0), list(cbuf)]

    import numpy as np
    arr = np.arange(1.0, 5.0)
    checked, table = registry().get("exec.call.checked"), []
    address = convert.pointer_address
    convert.pointer_address = lambda *a: table.append(a) or address(*a)
    out["ndarray"] = [h(arr, 4, 3.0), arr.tolist()]
    convert.pointer_address = address
    out["checked"] = registry().get("exec.call.checked") - checked
    out["table"] = len(table)
    out["np_address"] = convert.pointer_address(
        np.int64(64), T.pointer(T.float64))[0]
    print(json.dumps(out))
"""


def test_numpy_arriving_late_takes_the_fast_path(tmp_path, backend_name):
    """A pointer function first called with a bytearray and a ctypes array
    in a process without numpy, then with an ndarray once numpy is
    imported, gives what it gives where numpy came first; on C the array
    takes the plan's identity test: neither the checked call nor the
    pointer table."""
    late = run_child(tmp_path, LATE, backend_name, "late")
    early = run_child(tmp_path, LATE, backend_name, "early")
    assert late.pop("before_first_call") is False
    assert early.pop("before_first_call") is True
    assert late == early
    assert late["ndarray"] == [30.0, [3.0, 6.0, 9.0, 12.0]]
    assert late["np_address"] == 64 and late["checked"] == 0
    assert late["table"] == (backend_name == "interp")  # its copy-in checks


SERVE = """
    import json, sys

    from repro.serve.testing import ServerThread
    from repro.serve.server import ServeConfig

    MIX = '''
    terra mix(x : int, y : double, b : bool) : double
      if b then return x + y end
      return y
    end
    '''
    config = ServeConfig(socket_path=sys.argv[1], workers=2)
    with ServerThread(config) as server, server.client() as client:
        results = [client.call(MIX, "mix", [i, 0.5, i % 2 == 0])
                   for i in range(20)]
        buf = client.alloc("int32", 4)
        client.write(buf, [1, 2, 3, 4])
        results.append(client.read(buf, 4))
        client.free(buf)
    print(json.dumps({"results": results, "numpy": "numpy" in sys.modules}))
"""


def test_serve_server_with_scalar_traffic_leaves_numpy_unloaded(
        tmp_path, tmp_path_factory):
    sock = tmp_path_factory.mktemp("serve") / "s.sock"  # a short unix path
    out = run_child(tmp_path, SERVE, str(sock))
    assert out["results"] == [i + 0.5 if i % 2 == 0 else 0.5
                              for i in range(20)] + [[1, 2, 3, 4]]
    assert out["numpy"] is False
