"""The content-addressed artifact cache: keys, atomicity, LRU, recovery."""

import json
import os
import time

from repro.buildd.cache import ArtifactCache, INDEX_NAME


def make_cache(tmp_path, **kw):
    return ArtifactCache(root=str(tmp_path / "cache"), **kw)


def publish(cache, key, data=b"artifact", **meta):
    tmp = cache.make_temp()
    with open(tmp, "wb") as f:
        f.write(data)
    return cache.publish(key, tmp, **meta)


class TestKeys:
    def test_key_depends_on_source_flags_and_compiler(self):
        base = ArtifactCache.key_for("int f;", ("-O3",), "cc1")
        assert ArtifactCache.key_for("int f;", ("-O3",), "cc1") == base
        assert ArtifactCache.key_for("int g;", ("-O3",), "cc1") != base
        assert ArtifactCache.key_for("int f;", ("-O2",), "cc1") != base
        # a compiler upgrade must never reuse old artifacts
        assert ArtifactCache.key_for("int f;", ("-O3",), "cc2") != base

    def test_flag_concatenation_is_not_ambiguous(self):
        a = ArtifactCache.key_for("s", ("-a", "bc"), "cc")
        b = ArtifactCache.key_for("s", ("-ab", "c"), "cc")
        assert a != b


class TestPublishLookup:
    def test_roundtrip(self, tmp_path):
        cache = make_cache(tmp_path)
        assert cache.lookup("deadbeef") is None
        path = publish(cache, "deadbeef", b"hello", source="int x;")
        assert path == cache.artifact_path("deadbeef")
        assert open(path, "rb").read() == b"hello"
        assert cache.lookup("deadbeef") == path
        # the generated source is kept next to the artifact for debugging
        assert open(cache.source_path("deadbeef")).read() == "int x;"

    def test_publish_is_atomic_rename(self, tmp_path):
        cache = make_cache(tmp_path)
        publish(cache, "k1", b"data")
        # no half-written temp files remain
        leftovers = [n for n in os.listdir(cache.root)
                     if n.startswith(".build-")]
        assert leftovers == []

    def test_summary_counts_bytes(self, tmp_path):
        cache = make_cache(tmp_path)
        publish(cache, "k1", b"x" * 100)
        publish(cache, "k2", b"x" * 50)
        s = cache.summary()
        assert s["artifacts"] == 2
        assert s["bytes_cached"] == 150


class TestEviction:
    def test_lru_eviction_over_cap(self, tmp_path):
        cache = make_cache(tmp_path, max_bytes=250)
        publish(cache, "old", b"x" * 100)
        publish(cache, "mid", b"x" * 100)
        cache.lookup("old")               # old is now more recent than mid
        publish(cache, "new", b"x" * 100)  # 300 bytes > 250: evict LRU (mid)
        assert cache.lookup("mid") is None
        assert cache.lookup("old") is not None
        assert cache.lookup("new") is not None
        assert cache.summary()["bytes_cached"] <= 250

    def test_zero_cap_disables_eviction(self, tmp_path):
        cache = make_cache(tmp_path, max_bytes=0)
        publish(cache, "a", b"x" * 1000)
        publish(cache, "b", b"x" * 1000)
        assert cache.summary()["artifacts"] == 2


class TestHitPersistence:
    def test_a_pure_hit_touches_the_artifact_not_the_index(self, tmp_path):
        """The LRU clock is the artifact's mtime, so a warm-cache process
        (all hits, zero publishes) leaves what every later ``gc()`` reads —
        and rewrites no index, whatever its size."""
        writer = make_cache(tmp_path)
        path = publish(writer, "hot", b"x")
        old = time.time() - 60
        os.utime(path, (old, old))
        index = open(writer._index_path(), "rb").read()
        warm = ArtifactCache(root=writer.root)  # a second, warm process
        for _ in range(3):
            assert warm.lookup("hot") == path   # pure hit, never publishes
        assert os.stat(path).st_mtime > old + 30
        assert open(writer._index_path(), "rb").read() == index
        assert not [n for n in os.listdir(writer.root)
                    if n.startswith(".index-")]

    def test_cross_process_lru_respects_warm_hits(self, tmp_path):
        writer = make_cache(tmp_path, max_bytes=250)
        publish(writer, "hot", b"x" * 100)
        time.sleep(0.02)
        publish(writer, "cold", b"x" * 100)
        time.sleep(0.02)
        warm = ArtifactCache(root=writer.root, max_bytes=250)
        assert warm.lookup("hot") is not None  # hot is now the most recent
        evictor = ArtifactCache(root=writer.root, max_bytes=250)
        publish(evictor, "new", b"x" * 100)    # over cap: evict the true LRU
        assert evictor.lookup("cold") is None
        assert evictor.lookup("hot") is not None

    def test_a_new_memo_record_is_saved_at_once(self, tmp_path):
        """... on the row another process published after this one read
        the index, which the save keeps."""
        writer = make_cache(tmp_path)
        cache = ArtifactCache(root=writer.root)
        assert cache.summary()["artifacts"] == 0    # the index, read
        publish(writer, "k1", b"x", flags=("-O1",))
        record = ["sources", [["tfn1_f", []]]]
        assert cache.lookup("k1", ("d1", record)) is not None
        index = open(cache._index_path(), "rb").read()
        row = json.loads(index)["entries"]["k1"]
        assert row["memo"] == {"d1": record} and row["flags"] == ["-O1"]
        assert cache.lookup("k1", ("d1", record)) is not None   # known
        assert open(cache._index_path(), "rb").read() == index


class TestRecovery:
    def test_corrupted_index_is_rebuilt(self, tmp_path):
        cache = make_cache(tmp_path)
        path = publish(cache, "k1", b"data")
        (tmp_path / "cache" / INDEX_NAME).write_text("{not json!!")
        fresh = ArtifactCache(root=cache.root)
        assert fresh.lookup("k1") == path

    def test_prepopulated_dir_is_adopted(self, tmp_path):
        root = tmp_path / "cache"
        root.mkdir()
        (root / "unit_cafebabe.so").write_bytes(b"preexisting")
        (root / "unrelated.txt").write_text("junk")
        cache = ArtifactCache(root=str(root))
        assert cache.lookup("cafebabe") == cache.artifact_path("cafebabe")
        assert cache.summary()["artifacts"] == 1

    def test_stale_index_entry_dropped(self, tmp_path):
        cache = make_cache(tmp_path)
        publish(cache, "k1", b"data")
        os.unlink(cache.artifact_path("k1"))
        fresh = ArtifactCache(root=cache.root)
        assert fresh.lookup("k1") is None

    def test_gc_removes_orphan_temps(self, tmp_path):
        cache = make_cache(tmp_path)
        publish(cache, "k1", b"data")
        stray = cache.make_temp()  # an abandoned build temp ...
        old = time.time() - 2 * cache.temp_ttl_s
        os.utime(stray, (old, old))  # ... old enough to be an orphan
        assert os.path.exists(stray)
        out = cache.gc()
        assert not os.path.exists(stray)
        assert out["artifacts"] == 1
        assert cache.lookup("k1") is not None

    def test_gc_spares_fresh_inflight_temps(self, tmp_path):
        """Regression: gc() used to unlink *every* temp file, including one
        a concurrent in-flight build was still writing — its os.replace
        publish then failed with ENOENT.  Fresh temps must survive gc."""
        cache = make_cache(tmp_path)
        inflight = cache.make_temp()  # another builder is writing this now
        with open(inflight, "wb") as f:
            f.write(b"half-writ")
        out = cache.gc()
        assert os.path.exists(inflight)
        assert out["temp_files_removed"] == 0
        # ... and the in-flight build can still publish atomically
        cache.publish("k9", inflight)
        assert cache.lookup("k9") is not None

    def test_gc_temp_ttl_is_configurable(self, tmp_path):
        cache = make_cache(tmp_path, temp_ttl_s=0.0)
        stray = cache.make_temp()
        cache.gc()
        assert not os.path.exists(stray)

    def test_clear(self, tmp_path):
        cache = make_cache(tmp_path)
        publish(cache, "k1", b"data", source="int x;")
        publish(cache, "k2", b"data")
        assert cache.clear() > 0
        assert cache.lookup("k1") is None
        assert cache.summary() == {"root": cache.root, "artifacts": 0,
                                   "bytes_cached": 0,
                                   "max_bytes": cache.max_bytes,
                                   "max_entries": 0, "namespaces": {}}

    def test_index_survives_reload(self, tmp_path):
        cache = make_cache(tmp_path)
        publish(cache, "k1", b"data", flags=("-O3",), compile_s=0.5)
        data = json.load(open(cache._index_path()))
        assert data["entries"]["k1"]["flags"] == ["-O3"]
        assert data["entries"]["k1"]["compile_s"] == 0.5
