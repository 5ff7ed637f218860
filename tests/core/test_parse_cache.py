"""The template cache (``repro.core.parser.parsed``): one parsed tree per
source text, shared by every evaluation — which is sound only while
nothing writes to a tree and while everything per-evaluation (symbols,
escape values, locations) stays out of it."""

import hashlib
import importlib
import sys
import threading
import types

import numpy as np
import pytest

import repro
from repro import quote_, struct, terra, trace
from repro.autotune.genkernel import genkernel
from repro.core import ast
from repro.core.parser import TemplateCache, parsed, templates
from repro.core.env import Environment
from repro.core.specialize import Specializer
from repro.errors import SourceLocation, SpecializeError, TerraSyntaxError
from repro.lib import javalike as J
from repro.orion import lang as L
from repro.orion.compile import compile_pipeline
from repro.schedule import Schedule, Vectorize
from repro.trace.metrics import registry

from tests.frontend.kernels import PAIRS


def counter(name: str) -> float:
    return registry().get(f"parse.cache.{name}")


# -- (1) immutability --------------------------------------------------------------

def snapshot(node):
    """A deep structural image of an untyped tree: every attribute of
    every node by value, code objects by identity."""
    if isinstance(node, (ast.Node, ast.VarTarget, ast.Param, ast.CtorField)):
        names = vars(node) if hasattr(node, "__dict__") else node.__slots__
        return (type(node).__name__,
                tuple((n, snapshot(getattr(node, n))) for n in sorted(names)))
    if isinstance(node, (list, tuple)):
        return (type(node).__name__, tuple(snapshot(x) for x in node))
    if isinstance(node, SourceLocation):
        return (node.filename, node.line, node.column, node.line_text)
    if isinstance(node, (types.CodeType, Exception)):
        return ("identity", id(node))
    assert node is None or isinstance(node, (str, int, float, bool, type))
    return node


def stage_javalike(k: int):
    area = J.interface({"area": ([], repro.int64)}, name="Area")
    shape = struct("struct Shape { tag : int64 }")
    terra("terra Shape:area() : int64 return self.tag + K end",
          env={"Shape": shape, "K": k})
    square = struct("struct Square { len : int64 }")
    J.extends(square, shape)
    J.implements(square, area)
    terra("terra Square:area() : int64 return self.len * self.len + K end",
          env={"Square": square, "K": k})
    run = terra("""
    terra viaiface(d : &Iface) : int64 return d:area() end
    terra run(n : int64) : int64
      var s : Square
      s:init()
      s.len = n
      var d : &Iface = &s
      return viaiface(d)
    end
    """, env={"Square": square, "Iface": area.type}).run
    assert run(3) == 9 + k


def stage_corpus(variant: int) -> None:
    """Specialize, typecheck, compile and run every family of staged text
    the repo has, in an environment that depends on ``variant``."""
    nb, rm, rn, v, alpha = [(32, 4, 2, 2, 1.5), (64, 2, 4, 4, 0.0)][variant]
    kernel = genkernel(nb, rm, rn, v, alpha)
    a, b = np.ones((nb, nb)), np.ones((nb, nb))
    c = np.zeros((nb, nb))
    kernel(a, b, c, nb, nb, nb)
    assert np.allclose(c, a @ b)
    stage_javalike(10 + variant)
    pointee = [repro.float_, repro.double][variant]
    terra("""terra first(p : &pointee) : pointee
               return (@[&vector(pointee,2)](p))[0]
             end""")   # an escape that is a Terra type, not Python
    f = L.image("f")
    blur = L.stage((f(-1, 0) + f(0, 0) + f(1, 0)) / 3.0, "blur")
    n = 16 + 8 * variant
    pipe = compile_pipeline(blur, n,
                            tile_schedule=Schedule([Vectorize("x", 4)]))
    pipe.run(np.ones((n, n), dtype=np.float32))
    for _, factory in PAIRS:
        string_fn, py_fn, run = factory()   # the @terra twin: kind "pydef"
        assert run(string_fn) == run(py_fn)


def test_shared_trees_are_never_written():
    templates.clear()
    stage_corpus(0)
    before = {key: snapshot(tree) for key, tree in templates._trees.items()}
    kinds = {key[0] for key in before}
    assert kinds >= {"toplevel", "quote", "expr", "pydef"}
    assert len(before) > 45
    stage_corpus(1)
    stage_corpus(0)
    after = {key: snapshot(templates._trees[key]) for key in before}
    assert after == before


# -- (2) staging semantics survive sharing ---------------------------------------------

def test_same_text_gets_fresh_symbols_each_evaluation():
    quotes = [quote_("var x = 1") for _ in range(2)]
    decls = [q.tree.statements[0] for q in quotes]
    assert decls[0].symbols[0] is not decls[1].symbols[0]
    assert decls[0] is not decls[1]


def test_escape_sees_the_value_of_this_evaluation():
    results = []
    for k in (3, 4):
        results.append(terra("terra f() : int return [k] * 10 end")())
    assert results == [30, 40]


def test_one_tree_per_text():
    first = parsed("quote", "var y = [z]", "<quote>")
    hits = counter("hits")
    assert parsed("quote", "var y = [z]", "<quote>") is first
    assert counter("hits") == hits + 1
    assert parsed("quote", "var y = [z]", "<other>") is not first


def test_escape_bindings_do_not_outlive_the_escape():
    """A walrus inside an escape binds in a throwaway map, not in the
    specializer's shared view of the Terra scope: the next escape must
    not see ``k``, wherever a ``var`` falls between the two."""
    with pytest.raises(SpecializeError, match="NameError"):
        terra("""terra f(a : int) : int
                   var x = [(k := 3)]
                   return x + [k]
                 end""", env={})
    g = terra("""terra g(a : int) : int
                   return [(k := 3)] + [k]
                 end""", env={"k": 40})
    assert g(0) == 43


PYDEF_MODULE = """\
from repro import {T}, terra

@terra
def widen(x: {T}) -> {T}:
    y: {T} = x
    return y
"""


def test_decorated_defs_that_differ_only_in_annotations(tmp_path, monkeypatch):
    """Two files stamped from one template: the ``def``s compile to code
    objects that compare equal (annotations and ``co_filename`` are not
    part of the comparison), yet each keeps its own types and file."""
    monkeypatch.syspath_prepend(str(tmp_path))
    fns = {}
    for name, ty in (("pc_kernel_i32", "int32"), ("pc_kernel_i64", "int64")):
        (tmp_path / f"{name}.py").write_text(PYDEF_MODULE.format(T=ty))
        fns[ty] = importlib.import_module(name).widen
        monkeypatch.delitem(sys.modules, name)
    assert str(fns["int32"].gettype()) != str(fns["int64"].gettype())
    assert fns["int64"](2 ** 40) == 2 ** 40
    assert fns["int32"](7) == 7
    for name, fn in zip(("pc_kernel_i32", "pc_kernel_i64"), fns.values()):
        assert fn.location.filename.endswith(f"{name}.py")


def test_decorating_the_same_def_again_shares_the_tree():
    def make(k):
        @terra
        def scaled(x: repro.int32) -> repro.int32:
            return x * k
        return scaled
    first, hits = make(2), counter("hits")
    second = make(5)
    assert counter("hits") == hits + 1
    assert (first(3), second(3)) == (6, 15)


@pytest.mark.parametrize("cfg,pin", [
    ((32, 4, 2, 2, 1.5), ("eed43438f987912f", 5084)),
    ((64, 2, 4, 4, 0.0), ("446b202242af604c", 4675)),
])
def test_genkernel_c_is_the_parents(cfg, pin):
    """sha256 prefix + length of the C emitted at the commit before the
    cache, whichever configuration parsed the quotes first."""
    for _ in range(2):
        data = genkernel(*cfg).get_c_source().encode()
        assert (hashlib.sha256(data).hexdigest()[:16], len(data)) == pin


def test_type_escape_retry_survives_the_one_time_compile():
    """``&vector(float,4)`` is not Python: the SyntaxError of the single
    ``compile`` must still reach the retry-as-Terra-type path, every
    time the cached tree is evaluated."""
    for _ in range(2):
        f = terra("""
        terra f(p : &float) : float
          var v = @[&vector(float,4)](p)
          return v[2]
        end""")
        assert f(np.arange(4, dtype=np.float32)) == 2.0
    bad = "terra g() : int return [1 +] end"
    for _ in range(2):
        with pytest.raises(SpecializeError, match="SyntaxError"):
            terra(bad)


# -- (3) locations and syntax errors -------------------------------------------------------

def test_each_filename_and_first_line_keeps_its_own_locations():
    text = "1 +\n  [nosuchname]"
    for filename, first_line in (("a.t", 1), ("b.t", 40), ("a.t", 1)):
        tree = parsed("expr", text, filename, first_line)
        with pytest.raises(SpecializeError) as err:
            Specializer(Environment({}, {})).spec_expr(tree)
        loc = err.value.location
        assert (loc.filename, loc.line) == (filename, first_line + 1)
        assert loc.line_text == "  [nosuchname]"
        assert "  [nosuchname]\n" in str(err.value)


def test_syntax_error_is_raised_every_time_and_never_cached():
    bad = "var x = = 1"
    held, misses = len(templates._trees), counter("misses")
    messages = []
    for _ in range(3):
        with pytest.raises(TerraSyntaxError) as err:
            quote_(bad, filename="bad.t")
        messages.append(str(err.value))
    assert len(set(messages)) == 1 and "bad.t:1:9" in messages[0]
    assert messages[0].endswith("\n  var x = = 1\n          ^")
    assert len(templates._trees) == held
    assert counter("misses") == misses + 3


# -- (4) the bound -----------------------------------------------------------------------

def test_bound_evicts_least_recently_used_first():
    cache = TemplateCache(max_chars=100)
    evictions = counter("evictions")
    texts = [f"{i:04d} + {i:04d}" for i in range(40)]      # 11 chars each
    for i, text in enumerate(texts):
        cache.parsed("expr", text, "<expr>")
        assert cache.chars <= 100
        if i == 2:
            cache.parsed("expr", texts[0], "<expr>")       # touch the oldest
    assert cache.chars == 99 and len(cache._trees) == 9
    assert counter("evictions") == evictions + 31
    assert counter("chars") == 99          # this cache's size, absolute
    kept = [key[1] for key in cache._trees]
    assert kept == texts[-9:]
    # the touched text outlived the two inserted before the touch
    fresh = TemplateCache(max_chars=33)
    for text in texts[:3]:
        fresh.parsed("expr", text, "<expr>")
    fresh.parsed("expr", texts[0], "<expr>")
    fresh.parsed("expr", texts[3], "<expr>")
    assert [key[1] for key in fresh._trees] == [texts[2], texts[0], texts[3]]
    # a text over the bound is parsed and not kept
    fresh.parsed("expr", " + ".join(["1"] * 20), "<expr>")
    assert fresh.chars == 33
    # a registry reset cannot skew the gauge: the next change republishes
    registry().reset("parse.cache.chars")
    fresh.parsed("expr", texts[5], "<expr>")
    assert counter("chars") == fresh.chars == 33
    fresh.clear()
    assert counter("chars") == 0
    templates.clear()


# -- (5) threads ----------------------------------------------------------------------------

def test_concurrent_genkernel_from_a_cold_cache():
    cfg = (32, 2, 2, 4, 1.25)
    serial = genkernel(*cfg).get_c_source()
    templates.clear()
    start = threading.Barrier(8)
    sources, errors = [], []

    def work():
        try:
            start.wait(timeout=30)
            sources.append(genkernel(*cfg).get_c_source())
        except Exception as exc:   # reported by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert sources == [serial] * 8
    # every thread ended up sharing one tree per text
    assert templates.chars == sum(len(key[1]) for key in templates._trees)


# -- observability -------------------------------------------------------------------------

def test_parse_span_says_whether_the_tree_was_cached():
    src = "terra traced_parse_cache(a : int) : int return a end"
    templates.clear()
    trace.clear()
    trace.enable()
    try:
        terra(src)
        terra(src)
    finally:
        trace.disable()
    flags = [e.args["cached"] for e in trace.events() if e.name == "parse"]
    trace.clear()
    assert flags == [False, True]
