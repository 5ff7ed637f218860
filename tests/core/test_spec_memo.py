"""The structural memo (``linker.ensure_compiled``): a specialized
component whose digest already has a memo file naming an artifact is bound
from that artifact with no typed IR built — sound only while a hit is
indistinguishable from the slow path, everything that can move the C
moves the digest, and a damaged record is a miss."""

import contextlib
import json
import math
import os
import shutil
import subprocess
import sys
import threading

import numpy as np
import pytest

import repro
from repro import config
from repro import (constant, double, global_, int32, int64, pycallback,
                   struct, terra)
from repro.autotune.genkernel import genkernel
from repro.backend.c.runtime import CBackend, extra_cflags
from repro.buildd import toolchain
from repro.buildd.cache import ArtifactCache
from repro.buildd.service import CompileService
from repro.cinterop.saveobj import saveobj
from repro.core import types as T
from repro.schedule import Block, Parallel, Schedule, apply
from repro.trace.metrics import registry

from tests.frontend.kernels import PAIRS

#: every test here stages, calls and then reads the C backend's memo state
pytestmark = pytest.mark.usefixtures("c_default")

GEMM_POOL = [(nb, rm, rn, v) for nb in (32, 64)
             for rm, rn in ((4, 2), (2, 4)) for v in (2, 4)]


def memo_counts(thunk) -> dict:
    """What ``thunk`` added to the ``spec.memo.*`` counters."""
    before = registry().counters("spec.memo.")
    thunk()
    after = registry().counters("spec.memo.")
    return {name[len("spec.memo."):]: int(count - before.get(name, 0))
            for name, count in after.items() if count != before.get(name, 0)}


def pipeline_runs() -> int:
    return sum(t["runs"] for t in registry().timings("pass.").values())


def untyped(fn) -> bool:
    """A hit built no typed IR — unless ``make verify-ir`` is running, whose
    point is to build it on every hit and compare the C."""
    return fn.typed is None or config.get("REPRO_TERRA_VERIFY_IR")


def digest_of(fn):
    """``(members, digest)`` as the C backend computes them for ``fn``."""
    outcome, _, memo = repro.get_backend("c")._consult_memo(fn)
    assert not outcome.startswith("ineligible")
    return memo[1], memo[0]


@contextlib.contextmanager
def no_memo():
    """The slow path, whatever the cache knows."""
    saved = CBackend.memoized_unit
    CBackend.memoized_unit = lambda self, fn: (None, None, None)
    try:
        yield
    finally:
        CBackend.memoized_unit = saved


@pytest.fixture
def cold(tmp_path, swap_service):
    """A compile service over an empty private cache directory; call the
    returned function for another one over the same directory (what a
    later process would see)."""
    def fresh():
        return swap_service(CompileService(
            jobs=2, cache=ArtifactCache(root=str(tmp_path / "cache"))))
    fresh()
    return fresh


def assert_hit_equals_slow_path(make, run):
    """Stage twice: the second definition is a memo hit that leaves no
    typed IR and runs no pass, shows the C a memo-less derivation emits,
    and computes the same bits."""
    run(make())                                 # whatever the cache knew
    fn, runs = make(), pipeline_runs()
    hit = []
    assert memo_counts(lambda: hit.append(run(fn))) == {"hits": 1}
    assert untyped(fn) and (pipeline_runs() == runs or fn.typed is not None)
    with no_memo():
        slow = make()
        assert hit[0] == run(slow)
        assert slow.typed is not None
        assert fn.get_c_source() == slow.get_c_source()
    return fn


# -- (a) a hit is the slow path ---------------------------------------------------

@pytest.mark.parametrize("cfg", GEMM_POOL, ids=str)
def test_genkernel_hit(cfg):
    nb = cfg[0]
    rng = np.random.RandomState(3)
    a, b, c0 = rng.rand(nb, nb), rng.rand(nb, nb), rng.rand(nb, nb)

    def run(kernel):
        c = c0.copy()
        kernel(a, b, c, nb, nb, nb)
        assert np.allclose(c, 1.25 * c0 + a @ b)
        return c.tobytes()

    assert_hit_equals_slow_path(lambda: genkernel(*cfg, 1.25), run)


#: parity pairs whose string and @terra twins specialize to one digest
#: (the others reach one artifact row through two)
shared_digests = []


@pytest.mark.parametrize("name,factory", PAIRS, ids=[n for n, _ in PAIRS])
def test_parity_pair_hit(name, factory):
    for twin in (0, 1):
        assert_hit_equals_slow_path(lambda: factory()[twin], factory()[2])
    string_fn, py_fn, _ = factory()
    (_, d_string), (_, d_py) = digest_of(string_fn), digest_of(py_fn)
    cache = repro.buildd.get_service().cache
    assert cache.memo(d_string)[0] == cache.memo(d_py)[0]   # ONE row
    if d_string == d_py:
        shared_digests.append(name)


def test_parity_pairs_sharing_a_digest():
    """Informational (CHANGES.md quotes it): both frontends build the same
    specialized tree for every kernel of the corpus today."""
    assert len(shared_digests) <= len(PAIRS)
    print(f"{len(shared_digests)}/{len(PAIRS)} pairs share a digest:",
          shared_digests)


def test_two_structures_one_artifact_row(cold):
    """Trees that differ in shape but canonicalize to the same C are two
    digests on ONE row: the second is a memo miss, an artifact hit."""
    service = cold()
    plain = "terra same(a : int) : int return a end"
    padded = "terra same(a : int) : int return a + 0 end"
    assert memo_counts(terra(plain).compile) == {"misses": 1}
    assert memo_counts(terra(padded).compile) == {"misses": 1}
    assert service.stats.compiles == 1 and service.cache.memo_rows() == 1
    digests = {digest_of(terra(src))[1] for src in (plain, padded)}
    assert len(digests) == 2
    assert len({service.cache.memo(d)[0] for d in digests}) == 1
    service = cold()                        # both survive the round trip
    for src in (plain, padded):
        assert memo_counts(lambda: terra(src)(5)) == {"hits": 1}


def mutual():
    """``parity`` over a cycle: is_even <-> is_odd, return type inferred."""
    env = {"is_odd": repro.declare("is_odd")}
    env["is_even"] = terra("""
    terra is_even(n : int) : bool
      if n == 0 then return true end
      return is_odd(n - 1)
    end""", env=env)
    terra("""
    terra is_odd(n : int) : bool
      if n == 0 then return false end
      return is_even(n - 1)
    end""", env=env)
    return terra("""
    terra parity(n : int)
      var e = is_even(n)
      if e then return 10 * n end
      return n
    end""", env=env)


def test_mutually_recursive_component_hit():
    fn = assert_hit_equals_slow_path(mutual, lambda f: [f(7), f(8)])
    # every member was bound, the inferred return type came off the row
    assert fn.compile("c").type.returntype is T.int32
    members, _ = digest_of(mutual())
    assert [m.name for m in members] == ["parity", "is_even", "is_odd"]
    assert all("c" in m.dispatcher.handles for m in digest_of(fn)[0])


def test_chunked_kernel_hit():
    src = """
    terra scale(n : int64, x : &double) : {}
      for i = 0, n do x[i] = x[i] * 3.0 end
    end
    """

    def run(fn):
        x = np.arange(40.0)
        fn.compile("c")(8, 24, 40, x)
        return x.tobytes()

    assert_hit_equals_slow_path(lambda: terra(src).chunked, run)


# -- (b) what moves the C moves the digest ----------------------------------------

def ret_const(ty, value):
    return lambda: terra("terra k() : double return [c] end",
                         env={"c": constant(ty, value)})


def annotated(ty):
    def make():
        @terra
        def twice(x: ty) -> int64:
            return x + x
        return twice
    return make


def named_local(name):
    return lambda: terra(f"""terra f(a : int) : int
                               var {name} = a * 3
                               return {name}
                             end""")


def loop(tweak=lambda fn: fn):
    return lambda: tweak(terra("""
        terra inc(n : int64, x : &double) : {}
          for i = 0, n do x[i] = x[i] + 1.0 end
        end"""))


def caller_over(k):
    def make():
        callee = terra(f"terra callee(x : int) : int return x + {k} end")
        return terra("terra caller(x : int) : int return callee(x) * 2 end")
    return make


def fma_body():
    return terra("""terra muladd(a : double, b : double, c : double) : double
                      return a * b + c
                    end""")


def setenv(name, value):
    return lambda monkeypatch, stack: monkeypatch.setenv(name, value)


MUST_MISS = [
    # id, first definition, second definition, what changes in between
    ("1-vs-True", ret_const(double, 1), ret_const(double, True), None),
    ("1-vs-1.0", ret_const(double, 1), ret_const(double, 1.0), None),
    ("0.0-vs--0.0", ret_const(double, 0.0), ret_const(double, -0.0), None),
    ("nan-vs-inf", ret_const(double, math.nan), ret_const(double, math.inf),
     None),
    ("int32-vs-int64-constant", ret_const(int32, 5), ret_const(int64, 5),
     None),
    ("annotations-only", annotated(int32), annotated(int64), None),
    ("display-name", named_local("x"), named_local("y"), None),
    ("function-name", lambda: terra("terra f() : int return 1 end"),
     lambda: terra("terra g() : int return 1 end"), None),
    ("chunked", loop(), loop(lambda fn: fn.chunked), None),
    ("schedule", loop(lambda fn: apply(fn, Block("i", 4)).fn),
     loop(lambda fn: apply(fn, Block("i", 8)).fn), None),
    ("schedule-strict", loop(lambda fn: apply(fn, Schedule([Block("i", 4)])).fn),
     loop(lambda fn: apply(fn, Schedule([Block("i", 4)], strict=False)).fn),
     None),
    ("extra_cflags", loop(), loop(),
     lambda monkeypatch, stack: stack.enter_context(
         extra_cflags("-DMEMO_TEST"))),
    ("pipeline-level", fma_body, fma_body, setenv("REPRO_TERRA_PIPELINE", "0")),
    ("vec-bytes", fma_body, fma_body, setenv("REPRO_TERRA_VEC_BYTES", "16")),
    ("disable-passes", fma_body, fma_body,
     setenv("REPRO_TERRA_DISABLE_PASSES", "fold")),
    ("callee-body", caller_over(1), caller_over(2), None),
    ("package-fingerprint", fma_body, fma_body,
     lambda monkeypatch, stack: monkeypatch.setattr(
         toolchain, "package_fingerprint", lambda: "edited")),
]


@pytest.mark.parametrize("first,second,change",
                         [row[1:] for row in MUST_MISS],
                         ids=[row[0] for row in MUST_MISS])
def test_must_miss(first, second, change, cold, monkeypatch):
    a = first()
    assert memo_counts(a.compile) == {"misses": 1}
    with contextlib.ExitStack() as stack:
        if change is not None:
            change(monkeypatch, stack)
        b = second()
        counts = memo_counts(b.compile)
        assert "hits" not in counts and b.typed is not None
        # and the same definition again, under the same conditions, hits
        assert memo_counts(second().compile) == {"hits": 1}
    # the first one still does, too
    assert memo_counts(first().compile) == {"hits": 1}


def test_values_follow_the_constant(cold):
    """The rows above, end to end: a hit on the wrong one would show."""
    assert [ret_const(double, v)()() for v in (1, True, 1.0, 2, 0.0)] \
        == [1.0, 1.0, 1.0, 2.0, 0.0]
    assert math.copysign(1, ret_const(double, -0.0)()()) == -1.0
    assert math.isnan(ret_const(double, math.nan)()())
    assert [annotated(ty)()(2 ** 31 - 1) for ty in (int32, int64, int32)] \
        == [-2, 2 ** 32 - 2, -2]
    assert [caller_over(k)()(1) for k in (1, 2, 1)] == [4, 6, 4]


# -- (c) ineligible: state outside the tree --------------------------------------

def test_struct_global_and_callback_take_the_slow_path():
    env = {"MemoPoint": struct("struct MemoPoint { x : int, y : int }"),
           "counter": global_(int32, 5, "memo_counter"),
           "callback": pycallback(T.functype([int32], int32),
                                  lambda v: v + 100),
           "ghost": repro.declare("ghost")}
    terra("terra MemoPoint:sum() : int return self.x + self.y end", env=env)
    cases = {
        "struct": """terra f() : int
                       var p = MemoPoint { 3, 4 }
                       return p:sum()
                     end""",
        "global": "terra f() : int return counter + 1 end",
        "pycallback": "terra f() : int return callback(1) end",
        "undefined": "terra f() : int return ghost() end",
    }
    want = {"struct": 7, "global": 6, "pycallback": 101}
    for reason, src in cases.items():
        for _ in range(2):      # not the second time either
            fn = terra(src, env=env)
            if reason == "undefined":
                with pytest.raises(repro.errors.TerraError, match="ghost"):
                    fn()
                assert memo_counts(lambda: pytest.raises(
                    repro.errors.TerraError, fn.compile)) \
                    == {"ineligible.undefined": 1}
                continue
            assert memo_counts(lambda: fn()) == {f"ineligible.{reason}": 1}
            assert fn() == want[reason] and fn.typed is not None


def test_anonymous_named_ctor_is_a_fresh_struct():
    fn = terra("""terra f() : int
                    var p = { a = 1, b = 2 }
                    return p.a + p.b
                  end""")
    assert memo_counts(fn.compile) == {"ineligible.struct": 1}
    assert fn() == 3


# -- (d) a damaged cache is a miss -----------------------------------------------

SEVEN = "terra seven(a : int) : int return a * 7 end"


def memo_digests(cache) -> list:
    return os.listdir(cache.memo_path(""))


def stage_seven(service) -> str:
    assert terra(SEVEN)(3) == 21
    (key,) = {service.cache.memo(d)[0] for d in memo_digests(service.cache)}
    return key


def test_evicted_artifact(cold):
    service = cold()
    key = stage_seven(service)
    os.unlink(service.cache.artifact_path(key))
    fn = terra(SEVEN)
    assert memo_counts(lambda: fn(3)) == {"stale": 1}
    assert fn(3) == 21 and service.stats.compiles == 2
    assert memo_counts(lambda: terra(SEVEN)(3)) == {"hits": 1}


def test_deleted_index(cold):
    service = cold()
    stage_seven(service)
    for digest in memo_digests(service.cache):
        os.unlink(service.cache.memo_path(digest))
    service = cold()                  # a later process: no records at all
    assert memo_counts(lambda: terra(SEVEN)(3)) == {"misses": 1}
    assert service.stats.compiles == 0          # the artifact was adopted
    assert memo_counts(lambda: terra(SEVEN)(3)) == {"hits": 1}
    assert service.cache.gc()["artifacts"] == 1


@pytest.mark.parametrize("garbage", [
    42, "junk", [], {"memo": 42}, {"memo": {"DIGEST": 42}},
    {"memo": {"DIGEST": ["SOURCES", [["no_such_symbol"]]]}},
    {"memo": {"DIGEST": ["other sources", [["tfn0_seven", ["int32"]]]]}},
    {"memo": {"DIGEST": ["SOURCES", [["tfn0_seven", ["???"]]]]}},
    {"memo": {"DIGEST": ["SOURCES", []]}},
], ids=repr)
def test_garbage_row(cold, garbage):
    service = cold()
    key = stage_seven(service)
    digest = digest_of(terra(SEVEN))[1]
    row = json.loads(json.dumps(garbage).replace("DIGEST", digest).replace(
        "SOURCES", toolchain.package_fingerprint()))
    # the memo file: the key and the row's record, or the garbage itself
    if isinstance(row, dict) and isinstance(row.get("memo"), dict):
        row = [key, row["memo"][digest]]
    with open(service.cache.memo_path(digest), "w") as f:
        json.dump(row, f)
    service = cold()
    fn = terra(SEVEN)
    assert fn(3) == 21 and fn.typed is not None     # the slow path ran
    assert service.stats.compiles == 0 and service.stats.cache_hits >= 1
    fn = terra(SEVEN)                               # and repaired the row
    assert memo_counts(lambda: fn(3)) == {"hits": 1} and untyped(fn)
    assert service.cache.gc()["artifacts"] == 1
    assert service.cache.summary()["artifacts"] == 1


def test_a_digest_has_one_row(tmp_path):
    """Edited sources can emit new C for an old structure: the record moves
    to the new artifact's row, or a reload might resolve the digest to the
    old row — stale for ever after."""
    cache = ArtifactCache(root=str(tmp_path))
    for key, record in (("k1", ["old sources", []]), ("k2", ["new", []])):
        built = cache.make_temp()
        with open(built, "w") as f:
            f.write(key)
        cache.publish(key, built, memo=("digest", record))
    for view in (cache, ArtifactCache(root=str(tmp_path))):
        assert view.memo("digest") == ("k2", ["new", []])
        assert view.memo_rows() == 1


def test_removed_unit_source(cold):
    service = cold()
    key = stage_seven(service)
    expected = terra(SEVEN).get_c_source()
    os.unlink(service.cache.source_path(key))
    fn = terra(SEVEN)
    assert memo_counts(lambda: fn(3)) == {"hits": 1} and untyped(fn)
    assert fn.get_c_source() == expected        # re-derived
    assert fn.typed is not None


# -- (e) across processes ---------------------------------------------------------

CHILD = """
import json
import repro
from repro import terra, trace
from repro.trace.metrics import registry
trace.enable()
helper = terra("terra helper(a : int) return a * a end")
fn = terra("terra xproc(a : int, b : int) : int return helper(a) + b end")
print(json.dumps({
    "result": fn(6, 7), "spans": [e.name for e in trace.events()],
    "memo": registry().counters("spec.memo."),
    "compiles": repro.buildd.stats()["compiles"]}))
"""


def test_second_process_hits_without_typechecking(tmp_path):
    env = {**os.environ, "REPRO_TERRA_CACHE": str(tmp_path / "cache"),
           "REPRO_TERRA_BACKEND": "c",      # c_default, for the children
           "PYTHONPATH": os.pathsep.join(sys.path)}
    env.pop("REPRO_TERRA_VERIFY_IR", None)   # it re-derives on purpose
    first, second = (json.loads(subprocess.run(
        [sys.executable, "-c", CHILD], env=env, check=True,
        capture_output=True, text=True).stdout) for _ in range(2))
    assert first["result"] == second["result"] == 43
    assert first["memo"] == {"spec.memo.misses": 1} and first["compiles"] == 1
    assert second["memo"] == {"spec.memo.hits": 1} and second["compiles"] == 0

    def slow(spans):
        return [s for s in spans if s.startswith(
            ("typecheck:", "component:", "pipeline:", "pass:", "emit:"))]

    assert slow(first["spans"]) and not slow(second["spans"])
    assert "buildd.cache_hit" in second["spans"]
    assert "bind:xproc" in second["spans"]


# -- (f) threads on a cold memo ---------------------------------------------------

def test_eight_threads_define_and_call_one_structure(cold):
    service = cold()
    results, errors = [], []
    barrier = threading.Barrier(8)

    def work(i):
        try:
            barrier.wait()
            fn = terra("terra shared(a : int, b : int) : int "
                       "return a * 1000 + b end")
            results.append(fn(i, 7))
        except BaseException as exc:     # noqa: BLE001 - reported below
            errors.append(exc)

    def run_all():
        threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

    counts = memo_counts(run_all)
    assert not errors
    assert sorted(results) == [i * 1000 + 7 for i in range(8)]
    assert sum(counts.values()) == 8 and service.stats.compiles == 1
    assert memo_counts(lambda: terra(
        "terra shared(a : int, b : int) : int return a * 1000 + b end")(1, 2)
    ) == {"hits": 1}


# -- (g) a hit only defers the slow path -------------------------------------------

def hit(src: str, name=None):
    """``src`` staged until its compile is a memo hit."""
    def make():
        ns = terra(src)
        return ns if name is None else ns[name]
    make().compile()
    fn = make()
    assert memo_counts(fn.compile) == {"hits": 1} and untyped(fn)
    return fn


def test_typed_ir_on_demand_after_a_hit(tmp_path, capsys):
    src = "terra later(a : int, b : double) return a * b + 1.0 end"
    assert hit(src).gettype().returntype is T.float64
    assert "later" in hit(src).get_optimized_ir(0)
    text = hit(src).printpretty(typed=True)
    assert "double" in text and text in capsys.readouterr().out
    fn = hit(src)
    saveobj(str(tmp_path / "later.c"), {"later": fn})
    assert "double later(" in (tmp_path / "later.c").read_text()
    assert hit(src).compile("interp")(2, 1.5) == hit(src)(2, 1.5) == 4.0


def test_a_hit_function_is_a_callee_like_any_other():
    callee = hit("terra base(x : int) : int return x + 40 end")
    caller = terra("terra user(x : int) : int return callee(x) + 2 end")
    assert caller(0) == 42 and caller.compile("interp")(0) == 42


def test_parallel_schedule_dispatch_after_a_hit():
    src = """
    terra bump(n : int64, x : &double) : {}
      for i = 0, n do x[i] = x[i] + 2.0 end
    end
    """

    def scheduled():
        return apply(terra(src), Schedule([Block("i", 8),
                                           Parallel("i", nthreads=2)]))

    scheduled()(100, np.zeros(100))     # compiles the twin the workers run
    kernel = scheduled()
    x = np.zeros(100)
    assert memo_counts(lambda: kernel(100, x)) == {"hits": 1}
    assert np.array_equal(x, np.full(100, 2.0))
    with pytest.raises(repro.errors.ScheduleError, match="already"):
        apply(hit(src), Block("i", 4))       # bound: too late to schedule


# -- the safety net and the bypass --------------------------------------------------

def test_verify_ir_cross_checks_every_hit(cold, monkeypatch):
    src = "terra checked(a : int) : int return a * 3 + 1 end"
    terra(src).compile()
    monkeypatch.setenv("REPRO_TERRA_VERIFY_IR", "1")
    fn = terra(src)
    assert memo_counts(fn.compile) == {"hits": 1}
    assert fn.typed is not None             # the slow path ran as well
    # a record that points at another unit's artifact is caught, not served
    cache = repro.buildd.get_service().cache
    other = "terra checked(a : int) : int return a * 3 + 2 end"
    terra(other).compile()
    digest, wrong = digest_of(terra(src))[1], digest_of(terra(other))[1]
    shutil.copyfile(cache.memo_path(wrong), cache.memo_path(digest))
    cache._memos.clear()        # read as a later process would read it
    with pytest.raises(repro.errors.CompileError, match="structural memo"):
        terra(src).compile()


def test_dump_ir_bypasses_the_memo(monkeypatch, capsys):
    src = "terra dumped(a : int) : int return a + 2 + 3 end"
    terra(src).compile()
    monkeypatch.setenv("REPRO_TERRA_DUMP_IR", "fold")
    fn = terra(src)
    assert memo_counts(fn.compile) == {} and fn.typed is not None
    assert "before pass 'fold'" in capsys.readouterr().err
