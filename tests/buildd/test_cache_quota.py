"""The entry-count cap and namespace attribution on the artifact cache.

The byte cap predates multi-tenancy; these tests cover what was added for
:mod:`repro.serve` — a global ``max_entries`` LRU bound — plus the
``cache_namespace`` context that threads tenant attribution from a
submitting thread into ``publish`` (``summary()["namespaces"]``).
"""

import os
import threading
import time

import pytest

from repro.buildd.cache import ArtifactCache
from repro.buildd.service import CompileService, cache_namespace
from repro.errors import ConfigError


def put(cache, key, ns=None, size=16, bump_clock=True):
    """Publish a synthetic artifact under ``key``."""
    tmp = cache.make_temp()
    with open(tmp, "wb") as f:
        f.write(b"x" * size)
    path = cache.publish(key, tmp, namespace=ns)
    if bump_clock:
        time.sleep(0.002)  # distinct mtimes for deterministic LRU order
    return path


def live_keys(cache):
    return set(cache._load_index_locked())


class TestMaxEntries:
    def test_lru_eviction_at_the_entry_cap(self, tmp_path):
        cache = ArtifactCache(str(tmp_path / "c"), max_entries=3)
        for i in range(5):
            put(cache, f"key{i}")
        assert live_keys(cache) == {"key2", "key3", "key4"}

    def test_lookup_refreshes_lru_position(self, tmp_path):
        cache = ArtifactCache(str(tmp_path / "c"), max_entries=2)
        put(cache, "old")
        put(cache, "mid")
        assert cache.lookup("old") is not None  # bump: now newest
        time.sleep(0.002)
        put(cache, "new")
        assert live_keys(cache) == {"old", "new"}

    def test_evicted_artifacts_leave_no_files(self, tmp_path):
        cache = ArtifactCache(str(tmp_path / "c"), max_entries=1)
        put(cache, "a" * 24)
        put(cache, "b" * 24)
        assert not os.path.exists(cache.artifact_path("a" * 24))
        assert os.path.exists(cache.artifact_path("b" * 24))

    def test_zero_means_unbounded(self, tmp_path):
        cache = ArtifactCache(str(tmp_path / "c"), max_entries=0)
        for i in range(8):
            put(cache, f"key{i}", bump_clock=False)
        assert len(live_keys(cache)) == 8

    def test_env_default(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_BUILDD_CACHE_ENTRIES", "17")
        assert ArtifactCache(str(tmp_path / "c")).max_entries == 17
        monkeypatch.setenv("REPRO_BUILDD_CACHE_ENTRIES", "junk")
        with pytest.raises(ConfigError, match="REPRO_BUILDD_CACHE_ENTRIES"):
            ArtifactCache(str(tmp_path / "c"))


class TestConcurrentMultiTenantChurn:
    def test_invariants_hold_under_concurrent_eviction(self, tmp_path):
        """Many tenants publishing and looking up at once: the cap holds,
        the index matches the files on disk, and nothing raises."""
        max_entries, tenants, per_tenant = 12, 6, 15
        cache = ArtifactCache(str(tmp_path / "c"), max_entries=max_entries)
        errors = []
        start = threading.Barrier(tenants)

        def churn(tid):
            try:
                start.wait()
                for i in range(per_tenant):
                    put(cache, f"t{tid}k{i:02d}", ns=f"tenant-{tid}",
                        bump_clock=False)
                    cache.lookup(f"t{tid}k{i:02d}")
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=churn, args=(t,))
                   for t in range(tenants)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors

        with cache._lock:
            entries = dict(cache._load_index_locked())
        assert len(entries) == max_entries
        assert sum(cache.summary()["namespaces"].values()) == max_entries
        # index ↔ disk agreement: every live key has its artifact, and no
        # evicted artifact lingers
        on_disk = {name[len("unit_"):-len(".so")]
                   for name in os.listdir(cache.root)
                   if name.startswith("unit_") and name.endswith(".so")}
        assert on_disk == set(entries)


class TestServiceNamespaceThreading:
    def test_cache_namespace_attributes_builds(self, tmp_path,
                                               fake_toolchain):
        cache = ArtifactCache(str(tmp_path / "c"))
        svc = CompileService(jobs=2, cache=cache, tc=fake_toolchain)
        try:
            with cache_namespace("alice"):
                svc.compile("int alice_fn(void) { return 1; }")
            with cache_namespace("bob"):
                svc.compile("int bob_fn(void) { return 2; }")
            svc.compile("int nobody(void) { return 3; }")
            assert cache.summary()["namespaces"] == {
                "alice": 1, "bob": 1, "default": 1}
        finally:
            svc.shutdown()

    def test_namespace_context_restores_previous_value(self):
        from repro.buildd.service import current_namespace
        assert current_namespace() is None
        with cache_namespace("outer"):
            with cache_namespace("inner"):
                assert current_namespace() == "inner"
            assert current_namespace() == "outer"
        assert current_namespace() is None

    def test_identical_source_across_namespaces_builds_once(
            self, tmp_path, fake_toolchain):
        cache = ArtifactCache(str(tmp_path / "c"))
        svc = CompileService(jobs=2, cache=cache, tc=fake_toolchain)
        try:
            src = "int shared(void) { return 7; }"
            with cache_namespace("alice"):
                first = svc.compile(src)
            with cache_namespace("bob"):
                second = svc.compile(src)  # content-addressed: a cache hit
            assert first == second
            assert svc.stats.snapshot()["cache_hits"] >= 1
        finally:
            svc.shutdown()
