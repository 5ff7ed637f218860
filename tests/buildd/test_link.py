"""How a cached unit is linked: the compiler makes an object, the
toolchain's own linker makes the shared object with no C runtime and no
``DT_NEEDED``, and its undefined symbols bind against the process at
``dlopen`` — while ``saveobj``'s output, which leaves the process, keeps
the driver's full link."""

import os
import threading

import pytest

import repro
from repro import trace
from repro.buildd.cache import ArtifactCache
from repro.buildd.service import CompileService
from repro.cinterop.saveobj import saveobj
from repro.errors import LinkError, TrapError

LIBS = repro.includec("double pow(double, double); double lgamma(double);"
                      "void *malloc(uint64_t); void free(void *);"
                      "void *memset(void *, int, uint64_t);")


def needed(so_path: str) -> set:
    """The libc/libm names an ELF file carries (its ``DT_NEEDED`` strings
    live in ``.dynstr``, which nothing else here would put them in)."""
    data = open(so_path, "rb").read()
    return {lib for lib in ("libc.so.6", "libm.so.6") if lib.encode() in data}


@pytest.fixture
def fresh(tmp_path, swap_service):
    """A compile service over an empty cache: every unit is linked here."""
    return swap_service(CompileService(
        jobs=2, cache=ArtifactCache(root=str(tmp_path / "cache"))))


def test_a_unit_calls_libc_and_libm(cbackend, fresh):
    fn = repro.terra("""
    terra libs(n : int) : double
      var p = [&int8](L.malloc(n))
      L.memset(p, 3, n)
      var s = 0
      for i = 0, n do s = s + p[i] end
      L.free(p)
      return s + L.pow(2.0, 10.0) + L.lgamma(5.0)
    end""", env={"L": LIBS})
    h = fn.compile(cbackend)
    assert h(16) == pytest.approx(48 + 1024 + 3.1780538303479458)
    assert fresh.stats.compiles == 1
    (so,) = fresh.cache._artifacts()
    assert needed(fresh.cache.artifact_path(so)) == set()


def test_traps_from_eight_threads(cbackend, fresh):
    """The trap prelude's thread-local state and ``_setjmp`` bind against
    the process: eight threads trapping at once each get their own."""
    h = repro.terra("terra idiv(a : int, b : int) : int return a / b end") \
        .compile(cbackend)
    start, errors = threading.Barrier(8), []

    def hammer(k):
        start.wait()
        for i in range(200):
            try:
                h(k, 0)
                errors.append("no trap")
            except TrapError as exc:
                if "division by zero" not in str(exc):
                    errors.append(str(exc))
            if h(7 * k + i, 7) != k + i // 7:
                errors.append("wrong quotient")

    threads = [threading.Thread(target=hammer, args=(k,)) for k in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert errors == []


def test_a_symbol_the_process_lacks_is_a_link_error(cbackend, fresh):
    missing = repro.includec("int repro_no_such_symbol(int);")
    fn = repro.terra("terra lost(a : int) : int "
                     "return M.repro_no_such_symbol(a) end",
                     env={"M": missing})
    with pytest.raises(LinkError, match="repro_no_such_symbol"):
        fn.compile(cbackend)


@pytest.mark.parametrize("data", [None, b"\x7fELF"])
def test_only_a_missing_symbol_is_a_link_error(cbackend, tmp_path, data):
    """An artifact gone since its lookup (another process evicted it) or
    a damaged one is the loader's ``OSError``, not a symbol to look for."""
    fn = repro.terra("terra gone(a : int) : int return a end")
    so = tmp_path / "unit_damaged.so"
    if data is not None:
        so.write_bytes(data)
    with pytest.raises(OSError) as info:
        cbackend._bind_unit(fn, [], str(so))
    assert not isinstance(info.value, LinkError)


def test_saveobj_keeps_the_driver_link(cbackend, tmp_path):
    fn = repro.terra("""
    terra exported(x : double) : &double
      var p = [&double](L.malloc(8))
      @p = L.lgamma(x)
      return p
    end""", env={"L": LIBS})
    out = str(tmp_path / "exported.so")
    saveobj(out, {"exported": fn})
    assert needed(out) == {"libc.so.6", "libm.so.6"}


def test_a_compile_span_splits_into_cc_and_link(tmp_path, fake_toolchain):
    svc = CompileService(jobs=1, tc=fake_toolchain,
                         cache=ArtifactCache(root=str(tmp_path / "cache")))
    was = trace.enabled()
    trace.enable()
    trace.clear()
    try:
        svc.compile("int traced(void) { return 1; }")
        spans = {s.name: s for s in trace.events()
                 if s.name.startswith("buildd.")}
    finally:
        svc.shutdown()
        if not was:
            trace.disable()
    compile_ = spans["buildd.compile"]
    for child in ("buildd.cc", "buildd.link"):
        assert spans[child].parent == compile_.index, child
    assert spans["buildd.cc"].start_ns < spans["buildd.link"].start_ns
    assert os.path.exists(svc.cache.source_path(svc.key_for(
        "int traced(void) { return 1; }")))
