"""Specialized-tree utilities: node basics and read-only trees."""

import os
import re
import subprocess
import sys

import pytest

from repro import quote_, symbol, terra
from repro.core import sast, tast
from repro.core import types as T
from repro.core.symbols import Symbol
from repro.errors import FrontendContractError


class TestQuoteTyping:
    def test_typed_loop_variable(self):
        """`for i : uint64 = ...` gives the loop variable the declared
        type, not the start expression's."""
        f = terra("""
        terra f(n : uint64) : uint64
          var total : uint64 = 0
          for i : uint64 = 0, n do
            total = total + i
          end
          return total
        end
        """)
        assert f(10) == 45
        text = f.get_source(typed=True)
        assert ": uint64 =" in text

    def test_typed_symbol_loop_var(self):
        from repro import uint64 as u64
        i = symbol(u64, "i")
        body = quote_("[acc] = [acc] + [i]",
                      env={"acc": (acc := symbol(u64, "acc")), "i": i})
        f = terra("""
        terra f(n : uint64) : uint64
          var [acc] = 0
          for [i] = 0, n do
            [body]
          end
          return [acc]
        end
        """)
        assert f(5) == 10


# -- specialized trees are read-only ------------------------------------------------

def every_sast_class(cls=sast.SNode):
    for sub in cls.__subclasses__():
        yield sub
        yield from every_sast_class(sub)


def test_nodes_take_no_undeclared_attribute():
    """Every S-node class declares its fields as slots, and ``_fields`` is
    what it declared: an annotation written onto a node raises."""
    classes = list(every_sast_class())
    assert len(classes) == len(sast._SHAPES) + 2      # + SExpr, SStat
    for cls in classes:
        node = object.__new__(cls)
        assert not hasattr(node, "__dict__"), cls
        assert cls._fields == cls.__dict__["__slots__"], cls
        with pytest.raises(AttributeError):
            node.annotation = "typed"

def snapshot(node):
    """A deep image of a specialized (or typed) tree: every attribute of
    every node — an sast node's ``location`` plus its ``_fields``, which
    its slots make all it can hold; all of a typed node's, where an
    annotation written in place would be a new one — lists by value,
    symbols / types / functions by identity."""
    if isinstance(node, sast.SNode):
        return (type(node).__name__, snapshot(node.location),
                tuple((n, snapshot(getattr(node, n))) for n in node._fields))
    if isinstance(node, tast.TNode):
        return (type(node).__name__,
                tuple((n, snapshot(v)) for n, v in sorted(vars(node).items())))
    if isinstance(node, sast.SCtorField):
        return ("SCtorField", node.name, snapshot(node.value))
    if isinstance(node, (list, tuple)):
        return (type(node).__name__, tuple(snapshot(x) for x in node))
    if node is None or type(node) in (str, int, float, bool):
        return (type(node).__name__, repr(node))
    return ("identity", id(node))


def test_specialized_trees_are_never_written(monkeypatch):
    """Quotes share their trees with every splice and ``define()``
    fingerprints a body once: both rest on nothing writing to an sast
    node.  Stage the GEMM pool, the parity pairs in both frontends, an
    Orion pipeline and a javalike hierarchy; snapshot every quote and
    every body; typecheck, run, bring to levels 0-2 and emit; compare."""
    import numpy as np
    from repro.autotune.genkernel import genkernel
    from repro.core.function import TerraFunction
    from repro.core.quotes import Quote
    from repro.orion import lang as L
    from repro.orion.compile import compile_pipeline
    from repro.schedule import Schedule, Vectorize
    from repro import int64, struct
    from repro.lib import javalike as J
    from tests.frontend.kernels import PAIRS

    quotes, functions = [], []
    quote_init, define = Quote.__init__, TerraFunction.define

    def recording_init(self, *args, **kwargs):
        quote_init(self, *args, **kwargs)
        quotes.append(self)

    def recording_define(self, *args, **kwargs):
        functions.append(self)
        return define(self, *args, **kwargs)

    monkeypatch.setattr(Quote, "__init__", recording_init)
    monkeypatch.setattr(TerraFunction, "define", recording_define)

    runs = []
    for nb in (32, 64):
        a, b = np.ones((nb, nb)), np.ones((nb, nb))
        for rm, rn in ((4, 2), (2, 4)):
            for v in (2, 4):
                kernel = genkernel(nb, rm, rn, v, 1.5)
                runs.append(lambda k=kernel, a=a, b=b, nb=nb:
                            k(a, b, np.zeros((nb, nb)), nb, nb, nb))
    for _, factory in PAIRS:
        string_fn, py_fn, run = factory()
        runs += [lambda r=run, f=string_fn: r(f), lambda r=run, f=py_fn: r(f)]
    f = L.image("f")
    blur = L.stage((f(-1, 0) + f(0, 0) + f(1, 0)) / 3.0, "blur")
    pipe = compile_pipeline(blur, 16,
                            tile_schedule=Schedule([Vectorize("x", 4)]))
    runs.append(lambda: pipe.run(np.ones((16, 16), dtype=np.float32)))
    area = J.interface({"area": ([], int64)}, name="Area")
    square = struct("struct Square { len : int64 }")
    J.implements(square, area)
    terra("terra Square:area() : int64 return self.len * self.len end",
          env={"Square": square})
    viaiface = terra("""
    terra viaiface(d : &Iface) : int64 return d:area() end
    terra run(n : int64) : int64
      var s : Square
      s:init()
      s.len = n
      var d : &Iface = &s
      return viaiface(d)
    end
    """, env={"Square": square, "Iface": area.type}).run
    runs.append(lambda: viaiface(3))
    assert len(quotes) > 300 and len(functions) > 40
    monkeypatch.undo()      # what typechecking builds later is not the corpus

    def image():
        return ([snapshot([q.kind, q.tree, q.in_exprs]) for q in quotes],
                [snapshot(fn.body) for fn in functions])

    before = image()
    for run in runs:
        run()
    for fn in functions:
        fn.ensure_typechecked()
        for level in (0, 1, 2):
            fn.get_optimized_ir(level)
        fn.get_c_source()
    assert image() == before


# -- the contract walk and its digest ------------------------------------------------

def define(name, op, field, body=None):
    """Validate ``f(x : int32) return x.<field> <op> x`` (or ``body``),
    ``x`` displayed as ``name``; the :class:`~repro.core.sast.Fingerprint`."""
    x = Symbol(T.int32, name)
    if body is None:
        body = sast.SBlock([sast.SReturn([sast.SBinOp(
            op, sast.SSelect(sast.SVar(x), field), sast.SVar(x))])])
    return sast.validate_definition([x], [T.int32], None, body)


def test_digest_reads_strings_by_value():
    """Equal names are one digest whatever ``str`` objects spell them —
    one interned object used twice, or fresh joins — so what hashes the
    tokens writes no references and no interning (marshal >= 3 and pickle
    both would)."""
    shared = sys.intern("acc")
    one = define(shared, sys.intern("=="), shared)
    other = define("".join(["a", "cc"]), "".join(["=", "="]),
                   "".join(["ac", "c"]))
    assert one.digest == other.digest
    assert define("acc", "==", "acd").digest != one.digest
    assert define("acc", "~=", "acc").digest != one.digest


GEMM_POOL = [(nb, rm, rn, v) for nb in (32, 64)
             for rm, rn in ((4, 2), (2, 4)) for v in (2, 4)]

DIGESTS = """
from repro.autotune.genkernel import genkernel
for cfg in %r:
    print(genkernel(*cfg, 1.25).fingerprint.digest.hex())
""" % (GEMM_POOL,)


def test_digest_is_the_same_in_another_process():
    from repro.autotune.genkernel import genkernel
    here = [genkernel(*cfg, 1.25).fingerprint.digest.hex()
            for cfg in GEMM_POOL]
    env = {**os.environ, "PYTHONHASHSEED": "4242",
           "PYTHONPATH": os.pathsep.join(sys.path)}
    there = subprocess.run([sys.executable, "-c", DIGESTS], env=env,
                           check=True, capture_output=True, text=True)
    assert there.stdout.split() == here
    assert len(set(here)) == len(GEMM_POOL)


@pytest.mark.parametrize("body,message", [
    (lambda x: [sast.SReturn([3])],
     "expr position holds int (unresolved meta value"),
    (lambda x: [sast.SWhile(sast.SVar(x), sast.SReturn([]))],
     "block position holds SReturn"),
    (lambda x: [sast.SExprStat(sast.SCast("int", sast.SVar(x)))],
     "SCast type 'int' is not a Terra type"),
    (lambda x: [sast.SExprStat(sast.SSelect(sast.SVar(x), 3))],
     "SSelect field 3 is not resolved to a string"),
    (lambda x: [sast.SVarDecl([x, x], [None], None)],
     "SVarDecl symbols/types must pair 1:1"),
    (lambda x: [sast.SVarDecl(["x"], [None], None)],
     "SVarDecl symbols 'x' is not a Symbol"),
    (lambda x: [sast.SIf([], None)], "SIf needs at least one branch"),
    (lambda x: [sast.SExpr()], "SExpr stat position holds SExpr"),
])
def test_the_walk_reports_a_broken_contract(body, message):
    x = Symbol(T.int32, "x")
    with pytest.raises(FrontendContractError, match=re.escape(message)):
        define("x", "+", "f", sast.SBlock(body(x)))
