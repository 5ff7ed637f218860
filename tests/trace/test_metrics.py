"""The metrics registry, and BuildStats as a view over it."""

import threading

from repro.buildd.stats import BuildStats
from repro.trace.metrics import MetricsRegistry, registry as global_registry


def test_counters_add_get_prefix():
    reg = MetricsRegistry()
    assert reg.add("a.x") == 1
    assert reg.add("a.x", 2) == 3
    reg.add("b.y", 5)
    assert reg.get("a.x") == 3
    assert reg.get("missing", -1) == -1
    assert reg.counters("a.") == {"a.x": 3}


def test_track_max_keeps_high_water_mark():
    reg = MetricsRegistry()
    reg.track_max("q", 3)
    reg.track_max("q", 1)
    assert reg.get("q") == 3


def test_timings_fold_min_max_runs():
    reg = MetricsRegistry()
    reg.record_time("t", 0.5)
    reg.record_time("t", 0.1)
    reg.record_time("t", 0.9)
    entry = reg.timing("t")
    assert entry == {"runs": 3, "seconds": 1.5, "min": 0.1, "max": 0.9}
    assert reg.timing("missing") is None
    assert list(reg.timings("t")) == ["t"]


def test_rings_are_bounded():
    reg = MetricsRegistry()
    for i in range(10):
        reg.append("r", i, maxlen=4)
    assert reg.ring("r") == [6, 7, 8, 9]
    assert reg.ring("missing") == []


def test_reset_by_prefix():
    reg = MetricsRegistry()
    reg.add("a.x")
    reg.add("b.x")
    reg.record_time("a.t", 1.0)
    reg.append("a.r", 1)
    reg.reset("a.")
    assert reg.get("a.x") == 0
    assert reg.get("b.x") == 1
    assert reg.timing("a.t") is None
    assert reg.ring("a.r") == []


def test_snapshot_is_a_deep_copy():
    reg = MetricsRegistry()
    reg.add("c", 2)
    reg.record_time("t", 1.0)
    reg.append("r", {"k": 1})
    snap = reg.snapshot()
    reg.add("c")
    snap["timings"]["t"]["runs"] = 99
    assert reg.get("c") == 3
    assert snap["counters"]["c"] == 2
    assert reg.timing("t")["runs"] == 1


def test_registry_is_thread_safe():
    reg = MetricsRegistry()

    def bump():
        for _ in range(1000):
            reg.add("n")
            reg.record_time("t", 0.001)

    threads = [threading.Thread(target=bump) for _ in range(4)]
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    assert reg.get("n") == 4000
    assert reg.timing("t")["runs"] == 4000


# -- BuildStats as a view -----------------------------------------------------

def test_buildstats_counters_are_per_instance():
    a, b = BuildStats(), BuildStats()
    a.record_submit()
    a.record_compile("k", 0.5, 100)
    assert (a.submitted, a.compiles, a.cache_hits) == (1, 1, 0)
    assert (b.submitted, b.compiles, b.cache_hits) == (0, 0, 0)


def test_buildstats_hit_and_queue_accounting():
    st = BuildStats()
    st.record_hit()
    st.record_submit()
    st.record_submit()
    snap = st.snapshot()
    assert (snap["queue_depth"], snap["max_queue_depth"]) == (2, 2)
    st.record_compile("k1", 0.1, 10)
    st.record_failure("k2", 0.2)
    snap = st.snapshot()
    assert (snap["queue_depth"], snap["max_queue_depth"]) == (0, 2)
    assert st.cache_hits == snap["cache_hits"] == 1
    assert snap["cache_misses"] == 2
    assert snap["hit_rate"] == 1 / 3
    assert abs(st.registry.get("buildd.compile_seconds") - 0.3) < 1e-12
    assert snap["compile_seconds"] == 0.3
    assert snap["recent_builds"] == [{"key": "k1", "seconds": 0.1,
                                      "bytes": 10}]


def test_buildstats_cross_cutting_series_are_process_wide():
    """pass.* and fuzz.* live in the global registry: every view sees them."""
    reg = global_registry()
    before = int(reg.get("fuzz.programs"))
    pass_runs_before = (reg.timing("pass.__viewtest__") or {}).get("runs", 0)
    reg.add("fuzz.programs", 7)     # as repro.fuzz.runner does
    reg.record_time("pass.__viewtest__", 0.25)
    snap = BuildStats().snapshot()
    assert snap["fuzz"]["programs"] == before + 7
    assert snap["passes"]["__viewtest__"]["runs"] == pass_runs_before + 1
    reg.reset("pass.__viewtest__")


def test_buildstats_snapshot_shape():
    st = BuildStats()
    snap = st.snapshot()
    for key in ("submitted", "cache_hits", "cache_misses", "inflight_dedup",
                "compiles", "failures", "compile_seconds", "queue_depth",
                "max_queue_depth", "hit_rate", "recent_builds", "fuzz",
                "passes"):
        assert key in snap
    assert snap["hit_rate"] is None  # no requests yet
