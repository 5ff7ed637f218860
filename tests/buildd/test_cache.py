"""The content-addressed artifact cache: keys, atomicity, LRU, recovery —
and the filesystem as its index."""

import builtins
import json
import os
import time

import pytest

from repro.buildd.cache import ArtifactCache, LEGACY_INDEX


def make_cache(tmp_path, **kw):
    return ArtifactCache(root=str(tmp_path / "cache"), **kw)


def publish(cache, key, data=b"artifact", **meta):
    tmp = cache.make_temp()
    with open(tmp, "wb") as f:
        f.write(data)
    return cache.publish(key, tmp, **meta)


def files(root):
    """name -> (inode, mtime) of everything under ``root``."""
    out = {}
    for dirpath, _, names in os.walk(root):
        for name in names:
            st = os.stat(os.path.join(dirpath, name))
            out[os.path.relpath(os.path.join(dirpath, name), root)] = \
                (st.st_ino, st.st_mtime_ns)
    return out


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
        path = publish(cache, "deadbeef", b"hello")
        assert path == cache.artifact_path("deadbeef")
        assert open(path, "rb").read() == b"hello"
        assert cache.lookup("deadbeef") == path
        # the default namespace needs no sidecar: its absence says it
        assert not os.path.exists(cache.meta_path("deadbeef"))
        assert cache.summary()["namespaces"] == {"default": 1}

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
        and writes nothing else, whatever the cache's size."""
        writer = make_cache(tmp_path)
        path = publish(writer, "hot", b"x", memo=("d1", ["rec"]))
        old = time.time() - 60
        os.utime(path, (old, old))
        before = files(writer.root)
        warm = ArtifactCache(root=writer.root)  # a second, warm process
        for _ in range(3):
            assert warm.lookup("hot", ("d1", ["rec"])) == path  # pure hits
        assert os.stat(path).st_mtime > old + 30
        after = files(writer.root)
        del before["unit_hot.so"], after["unit_hot.so"]
        assert after == before

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
        """... for an artifact another process published after this one
        looked at the directory, and once: a known record is not
        rewritten."""
        writer = make_cache(tmp_path)
        cache = ArtifactCache(root=writer.root)
        assert cache.summary()["artifacts"] == 0    # the directory, read
        publish(writer, "k1", b"x")
        record = ["sources", [["tfn1_f", []]]]
        assert cache.lookup("k1", ("d1", record)) is not None
        assert json.load(open(cache.memo_path("d1"))) == ["k1", record]
        assert ArtifactCache(root=writer.root).memo("d1") == ("k1", record)
        saved = files(cache.root)["memo/d1"]
        assert cache.lookup("k1", ("d1", record)) is not None   # known
        assert files(cache.root)["memo/d1"] == saved


class TestRecovery:
    def test_corrupted_index_is_rebuilt(self, tmp_path):
        """A stray old index is not read; a memo file that does not decode
        is a miss, and the next record replaces it."""
        cache = make_cache(tmp_path)
        path = publish(cache, "k1", b"data")
        (tmp_path / "cache" / LEGACY_INDEX).write_text("{not json!!")
        for garbage in ("{not json!!", "42", '["../k1", 1]', '{"k1": 1}',
                        '["k1"]', "\udcff"):
            with open(cache.memo_path("d1"), "w", errors="surrogateescape") \
                    as f:
                f.write(garbage)
            fresh = ArtifactCache(root=cache.root)
            assert fresh.memo("d1") is None, garbage
            assert fresh.lookup("k1") == path
        assert fresh.lookup("k1", ("d1", [1])) == path
        assert fresh.memo("d1") == ("k1", [1])

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
        publish(cache, "k1", b"data", memo=("d1", []))
        publish(cache, "k2", b"data")
        assert cache.clear() > 0
        assert cache.lookup("k1") is None and cache.memo("d1") is None
        assert cache.summary() == {"root": cache.root, "artifacts": 0,
                                   "bytes_cached": 0,
                                   "max_bytes": cache.max_bytes,
                                   "max_entries": 0, "namespaces": {}}

    def test_index_survives_reload(self, tmp_path):
        cache = make_cache(tmp_path)
        publish(cache, "k1", b"data", namespace="alice")
        publish(cache, "k2", b"data")
        assert json.load(open(cache.meta_path("k1"))) == {"ns": "alice"}
        assert ArtifactCache(root=cache.root).summary()["namespaces"] \
            == {"alice": 1, "default": 1}


class TestTheFilesystemIsTheIndex:
    def test_an_old_index_dir_is_served(self, tmp_path):
        """A directory an older version filled — artifacts beside a
        ``buildd-index.json`` that holds their rows and memo records — is
        served by key; the index is never read, and gc removes it."""
        root = tmp_path / "cache"
        root.mkdir()
        for key in ("k1", "k2"):
            (root / f"unit_{key}.so").write_bytes(b"old artifact")
            (root / f"unit_{key}.c").write_text("int x;")
        (root / LEGACY_INDEX).write_text(json.dumps({"version": 1, "entries": {
            "k1": {"size": 12, "flags": [], "compile_s": 0.1, "created": 0,
                   "ns": "alice", "memo": {"d1": ["sources", []]}}}}))
        cache = ArtifactCache(root=str(root))
        assert cache.lookup("k1") == cache.artifact_path("k1")
        assert cache.lookup("k2") == cache.artifact_path("k2")
        assert cache.memo("d1") is None         # a miss, then a new record
        assert cache.summary()["namespaces"] == {"default": 2}
        out = cache.gc()
        assert out["artifacts"] == 2 and not (root / LEGACY_INDEX).exists()
        assert cache.lookup("k1") is not None

    @pytest.mark.parametrize("artifacts", [10, 1000])
    def test_first_memo_lookup_reads_one_file(self, tmp_path, monkeypatch,
                                              artifacts):
        """A fresh process's first memo lookup costs the same at 10 and at
        1000 artifacts: no directory listing, one file opened."""
        writer = make_cache(tmp_path)
        for i in range(artifacts):
            publish(writer, f"k{i}", b"x", memo=(f"d{i}", ["rec", i]))
        fresh = ArtifactCache(root=writer.root)
        calls = []

        def counted(name, real):
            def call(*args, **kw):
                calls.append(name)
                return real(*args, **kw)
            return call

        for name in ("listdir", "scandir", "stat", "walk"):
            monkeypatch.setattr(os, name, counted(name, getattr(os, name)))
        monkeypatch.setattr(builtins, "open", counted("open", builtins.open))
        found = fresh.memo(f"d{artifacts // 2}")
        monkeypatch.undo()
        assert found == (f"k{artifacts // 2}", ["rec", artifacts // 2])
        assert calls == ["open"]

    def test_gc_drops_what_belongs_to_no_artifact(self, tmp_path):
        """An evicted artifact's memo file goes at the next gc; a source
        or sidecar with no artifact goes once it is older than the temp
        TTL (until then it may be an in-flight build's)."""
        cache = make_cache(tmp_path)
        publish(cache, "k1", b"x", memo=("d1", []), namespace="alice")
        publish(cache, "k2", b"x", memo=("d2", []))
        os.unlink(cache.artifact_path("k1"))
        with open(cache.source_path("k3"), "w") as f:
            f.write("int building;")
        cache.gc()
        assert cache.memo("d1") is None and cache.memo("d2") == ("k2", [])
        assert os.path.exists(cache.meta_path("k1"))
        assert os.path.exists(cache.source_path("k3"))
        old = time.time() - 2 * cache.temp_ttl_s
        for path in (cache.meta_path("k1"), cache.source_path("k3")):
            os.utime(path, (old, old))
        cache.gc()
        assert not os.path.exists(cache.meta_path("k1"))
        assert not os.path.exists(cache.source_path("k3"))
        assert cache.memo_rows() == 1 and cache.lookup("k2") is not None

    def test_a_capped_caches_memo_files_stay_bounded(self, tmp_path):
        """Eviction takes the memo files that name what it evicts: under
        churn ``memo/`` holds no more records than the cap has artifacts."""
        cache = make_cache(tmp_path, max_entries=3)
        for i in range(20):
            publish(cache, f"k{i}", b"x", memo=(f"d{i}", ["rec", i]))
            os.utime(cache.artifact_path(f"k{i}"), ns=(i, i))
        assert sorted(cache._artifacts()) == ["k17", "k18", "k19"]
        assert sorted(os.listdir(cache.memo_path(""))) == \
            ["d17", "d18", "d19"]
        assert ArtifactCache(root=cache.root).memo("d5") is None

    def test_gc_sweeps_old_temps_in_every_directory(self, tmp_path):
        """A write the process died in leaves a temp in ``memo/`` or
        ``toolchain/`` as well as in the root."""
        cache = make_cache(tmp_path)
        old = time.time() - 2 * cache.temp_ttl_s
        temps = [os.path.join(cache.root, sub, ".src-dead")
                 for sub in ("", "memo", "toolchain")]
        os.makedirs(os.path.dirname(temps[-1]))
        for path in temps:
            with open(path, "w") as f:
                f.write("half")
            os.utime(path, (old, old))
        assert cache.gc()["temp_files_removed"] == 3
        assert not any(os.path.exists(path) for path in temps)
