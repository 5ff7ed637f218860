"""The seeded *bundle*: the staged programs the ``stage_*`` workloads and
the layer probe define, compile, run and check.

One bundle is three members, one per way this repo lets a user stage
code:

* ``genkernel`` — an :func:`repro.autotune.genkernel.genkernel` L1 GEMM
  micro-kernel (quotes, escapes, ``symmat``: paper Fig. 5), its
  ``(NB, RM, RN, V)`` drawn from :data:`GEMM_POOL`;
* ``javalike`` — a :mod:`repro.lib.javalike` class hierarchy with an
  interface, dispatched three ways (type reflection: paper §6.3.1);
* ``pyast`` — a ``@terra``-decorated Python function.

Each member has a seed-drawn constant spliced into its body, so no two
members of a run share C text, and each has a reference result that
never touches the compiler under test (numpy, Python integers).

The probe adds a fourth, ``string`` member — plain Terra source text —
because only that one exposes ``parse_toplevel`` and ``terra(src)`` as
separate calls.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

import repro
import repro.buildd as buildd
from repro import double, int32, ptr, struct, terra
from repro.autotune.genkernel import genkernel
from repro.core.linker import connected_component
from repro.core.parser import parse_toplevel
from repro.lib import javalike as J
from repro.passes import run_function_pipeline

#: ``(NB, RM, RN, V)``; every entry unrolls RM*RN = 8 vector
#: accumulators, so the generated C — and its gcc time — is of one size
#: whichever entry an op drew
GEMM_POOL = [(nb, rm, rn, v)
             for nb in (32, 64) for rm, rn in ((4, 2), (2, 4))
             for v in (2, 4)]

JAVA_ITERS = 8
PY_N = 256
AXPY_N = 8

ADD_SRC = "terra add(a : int, b : int) : int return a + b end"


def axpy_src(k: float) -> str:
    """The ``string`` member; ``k`` keeps its C text unique per draw."""
    return f"""
terra axpy(n : int, a : double, x : &double, y : &double) : {{}}
  for i = 0, n do
    y[i] = a * x[i] + y[i] * {k!r}
  end
end
"""


@dataclass
class Member:
    kind: str                      # genkernel | javalike | pyast | string
    make: Callable[[], object]     # the generator / decorator / terra() call
    args: Callable[[], tuple]      # fresh call arguments
    check: Callable[[object, tuple], bool]   # (return value, args) -> ok
    entry: str                     # name suffix of the C symbol
    source: str = ""               # Terra source text (string members)


@dataclass
class Bundle:
    members: list[Member]
    key: tuple                     # what the seed drew (for the self-test)


class Inputs:
    """Seeded call arguments shared by every bundle of a run."""

    def __init__(self, seed: int) -> None:
        rng = np.random.RandomState(seed % (2 ** 32))
        self.blocks = {nb: (rng.rand(nb, nb), rng.rand(nb, nb),
                            rng.rand(nb, nb)) for nb in (32, 64)}
        self.x = rng.rand(PY_N)
        self.y = rng.rand(PY_N)


# -- the member builders --------------------------------------------------------

def _genkernel_member(cfg, alpha: float, inputs: Inputs) -> Member:
    nb = cfg[0]
    a, b, c0 = inputs.blocks[nb]
    return Member(
        "genkernel",
        lambda: genkernel(*cfg, alpha),
        lambda: (a, b, c0.copy(), nb, nb, nb),
        lambda ret, args: bool(np.allclose(args[2], alpha * c0 + a @ b)),
        "anon")


def _make_javalike(k: int):
    area = J.interface({"area": ([], repro.int64)}, name="Area")
    shape = struct("struct Shape { tag : int64 }")
    terra("terra Shape:area() : int64 return self.tag + K end",
          env={"Shape": shape, "K": k})
    square = struct("struct Square { len : int64 }")
    J.extends(square, shape)
    J.implements(square, area)
    terra("terra Square:area() : int64 return self.len * self.len + K end",
          env={"Square": square, "K": k})
    return terra("""
    terra viaparent(p : &Shape) : int64 return p:area() end
    terra viaiface(d : &Iface) : int64 return d:area() end
    terra run(n : int64) : int64
      var s : Square
      s:init()
      var b : Shape
      b:init()
      b.tag = 7
      var acc : int64 = 0
      for i = 0, n do
        s.len = i
        acc = acc + viaparent(&s) + viaparent(&b)
        var d : &Iface = &s
        acc = acc + viaiface(d)
      end
      return acc
    end
    """, env={"Square": square, "Shape": shape, "Iface": area.type}).run


def _javalike_member(k: int) -> Member:
    want = sum(2 * (i * i + k) + 7 + k for i in range(JAVA_ITERS))
    return Member("javalike", lambda: _make_javalike(k),
                  lambda: (JAVA_ITERS,),
                  lambda ret, args: ret == want, "run")


def _make_pyast(k: float):
    @terra
    def poly(y: ptr(double), x: ptr(double), n: int32) -> None:
        for i in range(n):
            y[i] = (x[i] * k + 1.0) * x[i] + y[i]
    return poly


def _pyast_member(k: float, inputs: Inputs) -> Member:
    x, y0 = inputs.x, inputs.y
    return Member(
        "pyast", lambda: _make_pyast(k),
        lambda: (y0.copy(), x, PY_N),
        lambda ret, args: bool(np.allclose(args[0], (x * k + 1.0) * x + y0)),
        "poly")


def string_member(k: float, inputs: Inputs) -> Member:
    src = axpy_src(k)
    x, y0 = inputs.x[:AXPY_N], inputs.y[:AXPY_N]
    return Member(
        "string", lambda: terra(src),
        lambda: (AXPY_N, 0.5, x, y0.copy()),
        lambda ret, args: bool(np.allclose(args[3], 0.5 * x + y0 * k)),
        "axpy", source=src)


def draw_bundles(seed: int, inputs: Inputs) -> Iterator[Bundle]:
    """The bundles of ``seed``, in order, for as long as the caller
    takes them (2730 at most): GEMM configurations are drawn from the
    pool without replacement (reshuffled when it runs out) and every
    constant is drawn without replacement, so no C text repeats."""
    rng = random.Random(seed)
    consts = iter(rng.sample(range(1, 8192), 8190))
    pool: list = []
    for ka, kj, kp in zip(consts, consts, consts):
        if not pool:
            pool = rng.sample(GEMM_POOL, len(GEMM_POOL))
        cfg = pool.pop()
        alpha, kpy = 1.0 + ka / 8192.0, 1.0 + kp / 8192.0
        yield Bundle([
            _genkernel_member(cfg, alpha, inputs),
            _javalike_member(kj),
            _pyast_member(kpy, inputs),
        ], (cfg, ka, kj, kp))


# -- running a member -----------------------------------------------------------

def run_member(member: Member, tracer):
    """Define ``member`` and take its first result: in one shot, as a
    user does, or — when ``tracer`` records — stepped through the
    layers.  Returns ``(fn, ok, facts)``; ``facts`` is empty for the
    one-shot form."""
    if tracer.enabled:
        return run_stepped(member, tracer)
    fn = member.make()
    args = member.args()
    return fn, member.check(fn(*args), args), {}


def cacheable(member: Member) -> bool:
    """Whether a second process can hit the artifact cache on this
    member.  ``lib.javalike`` keeps its vtables in Terra globals, the C
    emitter splices a global as its absolute address, and that address
    differs in every process — so a javalike unit is *never* a
    cross-process hit, and ``stage_cached`` (whose definition is "gcc
    never runs") leaves that member out of its bundles.  The probe
    reports the gap as ``buildd.xproc_hit_ratio``."""
    return member.kind != "javalike"


def pipeline_component(fn, level: int) -> int:
    """Run the pass pipeline over ``fn``'s connected component (what the
    linker does before handing the component to a backend); returns the
    number of Terra-defined functions in it."""
    members = [f for f in connected_component(fn) if not f.is_external]
    for f in members:
        run_function_pipeline(f, level)
    return len(members)


def run_stepped(member: Member, tracer):
    """The traced pass's replacement for the one-shot first call: the
    same lifecycle, one public call per layer, each in a driver-side
    span.  Every step memoizes the ones before it, so a span holds its
    own layer's new work (``fn.compile()`` re-emits the unit, which is
    why ``backend_c.bind`` is reported net of the hit only).  Returns
    ``(fn, ok, facts)`` with the exact counts the probe reports."""
    backend = repro.default_backend()
    level = backend.pipeline_level
    facts: dict = {}
    if member.kind == "string":
        with tracer.span("core.parse"):
            parse_toplevel(member.source)
        with tracer.span("core.specialize+parse"):
            fn = member.make()
    else:
        with tracer.span({"genkernel": "autotune.genkernel",
                          "javalike": "lib.javalike",
                          "pyast": "frontend.lower"}[member.kind]):
            fn = member.make()
    with tracer.span("core.typecheck"):
        fn.ensure_typechecked()
    with tracer.span("passes.pipeline"):
        facts["component_fns"] = pipeline_component(fn, level)
    with tracer.span("backend_c.emit"):
        source = backend.emit_source(fn)
    facts["c_bytes"] = len(source)
    facts["source"] = source
    args = member.args()
    with tracer.span("buildd.compile"):
        facts["so"] = buildd.compile(source)
    with tracer.span("backend_c.bind+hit"):
        fn.compile()
    with tracer.span("exec.first_call"):
        ret = fn(*args)
    return fn, member.check(ret, args), facts


def c_symbol(source: str, entry: str) -> str:
    """The C name the emitter gave ``entry`` (``tfn<ordinal>_<name>``);
    the first definition in the unit is the entry function's."""
    found = re.search(rf"\b(tfn\d+_{re.escape(entry)})\s*\(", source)
    if found is None:
        raise LookupError(f"no C symbol for {entry!r} in emitted unit")
    return found.group(1)
