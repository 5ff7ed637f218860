"""End-to-end: the real compile lifecycle produces the documented spans."""

import json
import uuid

import pytest

import repro
from repro import trace
from repro.buildd.cache import ArtifactCache
from repro.buildd.service import CompileService
from repro.exec import TieredPolicy, policy_override
from repro.trace.export import validate_chrome


def _unique_fn():
    """A function whose C unit has never been compiled in any process
    (unique constant -> unique cache key)."""
    tag = uuid.uuid4().int % 1_000_000
    return repro.terra(f'''
    terra traced{tag}(a : int) : int
      return a + {tag}
    end
    ''')


def _names():
    return [e.name for e in trace.events()]


def test_full_lifecycle_spans_present(c_default):
    trace.enable()
    fn = _unique_fn()
    assert fn(1) == 1 + int(fn.name[len("traced"):])
    names = _names()
    for prefix in ("terra", "parse", f"specialize:{fn.name}",
                   f"link:{fn.name}", f"component:{fn.name}",
                   f"typecheck:{fn.name}", f"pipeline:{fn.name}",
                   "pass:fold", "pass:simplify", "pass:dce",
                   f"emit:{fn.name}", "buildd.submit", "buildd.compile",
                   f"bind:{fn.name}", f"call:{fn.name}"):
        assert any(n.startswith(prefix) for n in names), f"missing {prefix}"
    doc = trace.export_chrome()
    assert validate_chrome(doc) == []


def test_lifecycle_span_nesting():
    """specialize nests under terra; typecheck and passes under link."""
    trace.enable()
    fn = _unique_fn()
    fn(0)
    evs = {e.name: e for e in trace.events()}
    by_index = {e.index: e for e in trace.events()}

    def parent_of(name):
        return by_index[evs[name].parent]

    assert parent_of(f"specialize:{fn.name}").name == "terra"
    assert parent_of(f"typecheck:{fn.name}").name == f"component:{fn.name}"
    assert parent_of(f"component:{fn.name}").name == f"link:{fn.name}"
    assert parent_of("pass:fold").name == f"pipeline:{fn.name}"


def test_compile_spans_cross_buildd_threads(c_default):
    """The gcc run happens on a buildd worker thread; its span lands in
    that thread's lane without corrupting the main thread's nesting."""
    trace.enable()
    fn = _unique_fn()
    ticket = fn.compile_async()
    handle = ticket.result()
    assert handle(1) > 0
    evs = {e.name: e for e in trace.events()}
    compile_span = evs["buildd.compile"]
    emit_span = evs[f"emit:{fn.name}"]
    assert compile_span.tid != emit_span.tid
    assert compile_span.thread_name.startswith("buildd")
    assert compile_span.parent is None  # a root in the worker's lane
    assert compile_span.args["key"]
    assert "artifact_bytes" in compile_span.args


def test_cache_hit_vs_compile(cbackend, tmp_path):
    """First build compiles; the identical source again is a cache hit —
    and the trace shows exactly that."""
    service = CompileService(jobs=1,
                             cache=ArtifactCache(root=str(tmp_path / "c")))
    source = "int life(void) { return 42; }\n"
    trace.enable()
    service.compile(source)
    service.compile(source)
    names = _names()
    assert names.count("buildd.submit") == 1
    assert names.count("buildd.compile") == 1
    assert names.count("buildd.cache_hit") == 1
    assert service.stats.snapshot()["hit_rate"] == 0.5
    service._pool.shutdown(wait=True)


def test_pass_spans_record_changed_flag():
    trace.enable()
    tag = uuid.uuid4().int % 1_000_000
    fn = repro.terra(f'''
    terra foldme{tag}() : int
      return 2 + 3 + {tag}
    end
    ''')
    fn.get_optimized_ir()
    fold = next(e for e in trace.events() if e.name == "pass:fold")
    assert fold.args["function"] == fn.name
    assert fold.args["changed"] is True


def test_interp_backend_emits_spans_too():
    trace.enable()
    fn = _unique_fn()
    handle = fn.compile(repro.get_backend("interp"))
    handle(1)
    names = _names()
    emit = next(e for e in trace.events()
                if e.name == f"emit:{fn.name}")
    assert emit.args["backend"] == "interp"
    assert f"call:{fn.name}" in names


def test_pass_timings_flow_into_metrics_registry():
    from repro.trace.metrics import registry
    before = (registry().timing("pass.fold") or {}).get("runs", 0)
    fn = _unique_fn()
    fn.get_optimized_ir()
    after = registry().timing("pass.fold")["runs"]
    assert after > before


def test_disabled_tracing_records_nothing_across_lifecycle():
    fn = _unique_fn()
    assert fn(1) > 0
    assert trace.events() == []


def test_one_emission_per_unit(c_default):
    """``get_c_source()`` and ``compile()`` share one emission per entry
    function: what is shown is what was compiled.  The text is emitted
    again only when something it depends on moved."""
    from repro.passes import pipeline_override
    trace.enable()
    fn = _unique_fn()
    shown = fn.get_c_source()
    fn.compile()
    fn.compile_async().result()
    assert fn.get_c_source() is shown

    def emissions():
        return sum(e.name == f"emit:{fn.name}" for e in trace.events())
    assert emissions() == 1
    with pipeline_override(0):
        raw = fn.get_c_source()
    assert emissions() == 2 and fn.get_c_source() == shown
    assert emissions() == 3 and raw is not shown

    loop = repro.terra("""
    terra fill(p : &int, n : int64) : {}
      for i = 0, n do p[i] = 7 end
    end""")
    plain = loop.get_c_source()
    assert "_chunk" not in plain
    assert "fill_chunk" in loop.chunked.get_c_source()
    assert loop.get_c_source() is plain


def test_tiered_run_traces_the_tier_up(cbackend, tmp_path):
    """The call that crosses the threshold stages the tier-up in a span and
    marks its landing with an instant; any later arguments run at tier 1."""
    fn = repro.terra("""
    terra modsum(n : int64, d : int64) : int64
      var acc : int64 = 0
      for i = 0, n do
        acc = acc + i % d
      end
      return acc
    end
    """)
    trace.enable()
    with policy_override(TieredPolicy(threshold=4, sync=True)):
        for n in range(10, 16):
            assert fn(n, 7) == sum(i % 7 for i in range(n))
        assert fn.dispatcher.tier_info() == {"tier": 1, "calls": 4}
        assert fn(12, 5) == sum(i % 5 for i in range(12))
    names = _names()
    assert names.count("exec.tier_up") == 1
    assert names.count(f"exec.tier_up:{fn.name}") == 1
    doc = json.load(open(trace.export_chrome(str(tmp_path / "tier.json"))))
    assert validate_chrome(doc) == []
