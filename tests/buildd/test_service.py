"""The compile service: pooling, dedup, telemetry, failure propagation."""

import ctypes
import os
import threading
import time

import pytest

from repro.buildd import cc_available
from repro.buildd.cache import ArtifactCache
from repro.buildd.service import CompileService
from repro.errors import CompileError


def make_service(tmp_path, fake_toolchain, jobs=4, **kw):
    cache = ArtifactCache(root=str(tmp_path / "cache"))
    return CompileService(jobs=jobs, cache=cache, tc=fake_toolchain, **kw)


class TestBasics:
    def test_compile_produces_artifact(self, tmp_path, fake_toolchain):
        svc = make_service(tmp_path, fake_toolchain)
        path = svc.compile("int x = 1;")
        data = open(path, "rb").read()
        assert data.startswith(b"FAKESO\0")
        assert b"int x = 1;" in data

    def test_warm_cache_hit(self, tmp_path, fake_toolchain):
        svc = make_service(tmp_path, fake_toolchain)
        p1 = svc.compile("int x;")
        p2 = svc.compile("int x;")
        assert p1 == p2
        snap = svc.stats.snapshot()
        assert snap["compiles"] == 1
        assert snap["cache_hits"] == 1
        assert snap["hit_rate"] == 0.5

    def test_distinct_flags_distinct_artifacts(self, tmp_path, fake_toolchain):
        svc = make_service(tmp_path, fake_toolchain)
        p1 = svc.compile("int x;", ("-DA",))
        p2 = svc.compile("int x;", ("-DB",))
        assert p1 != p2
        assert svc.stats.snapshot()["compiles"] == 2

    def test_async_returns_future(self, tmp_path, fake_toolchain):
        svc = make_service(tmp_path, fake_toolchain)
        futs = [svc.compile_async(f"int x{i};") for i in range(8)]
        paths = [f.result() for f in futs]
        assert len(set(paths)) == 8
        snap = svc.stats.snapshot()
        assert snap["compiles"] == 8
        assert snap["max_queue_depth"] >= 1
        assert snap["queue_depth"] == 0

    def test_cross_service_cache_share(self, tmp_path, fake_toolchain):
        """Two services over one cache root (≈ two processes) share
        artifacts."""
        a = make_service(tmp_path, fake_toolchain)
        b = make_service(tmp_path, fake_toolchain)
        pa = a.compile("int shared;")
        pb = b.compile("int shared;")
        assert pa == pb
        assert b.stats.snapshot()["compiles"] == 0
        assert b.stats.snapshot()["cache_hits"] == 1


class TestDedup:
    def test_inflight_requests_share_one_compile(self, tmp_path,
                                                 fake_toolchain, monkeypatch):
        monkeypatch.setenv("FAKECC_DELAY", "0.4")
        svc = make_service(tmp_path, fake_toolchain, jobs=4)
        results, errors = [], []

        def worker():
            try:
                results.append(svc.compile("int contended;"))
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(set(results)) == 1
        snap = svc.stats.snapshot()
        # provably one compiler run for six requests: the rest were either
        # deduped against the in-flight build or (late arrivals) cache hits
        assert snap["compiles"] == 1
        assert snap["submitted"] == 6
        assert snap["inflight_dedup"] + snap["cache_hits"] == 5

    def test_failure_propagates_to_all_waiters(self, tmp_path,
                                               fake_toolchain, monkeypatch):
        monkeypatch.setenv("FAKECC_DELAY", "0.3")
        monkeypatch.setenv("FAKECC_FAIL", "1")
        svc = make_service(tmp_path, fake_toolchain)
        futs = [svc.compile_async("int broken;") for _ in range(3)]
        for fut in futs:
            with pytest.raises(CompileError, match="induced failure"):
                fut.result()
        snap = svc.stats.snapshot()
        assert snap["failures"] == 1
        assert snap["compiles"] == 0
        # a failed build is not cached: retry compiles again
        monkeypatch.delenv("FAKECC_FAIL")
        monkeypatch.delenv("FAKECC_DELAY")
        assert svc.compile("int broken;")
        assert svc.stats.snapshot()["compiles"] == 1


class TestDrain:
    def test_drain_waits_for_the_build_and_its_callbacks(
            self, tmp_path, fake_toolchain, monkeypatch):
        monkeypatch.setenv("FAKECC_DELAY", "0.3")
        svc = make_service(tmp_path, fake_toolchain)
        seen = []
        svc.compile_async("int drained;").add_done_callback(
            lambda fut: (time.sleep(0.1), seen.append(fut.result())))
        svc.drain()
        assert len(seen) == 1 and seen[0].endswith(".so")

    def test_a_refused_submit_leaves_nothing_in_flight(self, tmp_path,
                                                       fake_toolchain):
        svc = make_service(tmp_path, fake_toolchain)
        svc._pool.shutdown()
        for _ in range(2):      # not a dedup against a build never run
            with pytest.raises(RuntimeError):
                svc.compile_async("int late;")
        svc.drain()     # returns: no build was left to wait for


class TestTelemetry:
    def test_snapshot_shape(self, tmp_path, fake_toolchain):
        svc = make_service(tmp_path, fake_toolchain)
        svc.compile("int x;")
        snap = svc.snapshot()
        for key in ("jobs", "compiler", "root", "artifacts", "bytes_cached",
                    "max_bytes", "submitted", "cache_hits", "cache_misses",
                    "compiles", "failures", "compile_seconds", "queue_depth",
                    "max_queue_depth", "hit_rate", "recent_builds"):
            assert key in snap, key
        assert snap["artifacts"] == 1
        assert snap["bytes_cached"] > 0
        assert snap["recent_builds"][0]["seconds"] >= 0

    def test_per_unit_times_recorded(self, tmp_path, fake_toolchain):
        svc = make_service(tmp_path, fake_toolchain)
        svc.compile("int a;")
        svc.compile("int b;")
        recent = svc.stats.snapshot()["recent_builds"]
        assert len(recent) == 2
        assert all(r["bytes"] > 0 for r in recent)


class TestCompileTo:
    def test_compile_to_writes_output(self, tmp_path, fake_toolchain):
        svc = make_service(tmp_path, fake_toolchain)
        src = tmp_path / "in.c"
        src.write_text("int exported;")
        out = tmp_path / "out.o"
        svc.compile_to(str(out), "int exported;", ["-c", str(src)])
        assert out.exists()
        assert b"int exported;" in out.read_bytes()
        assert svc.stats.snapshot()["compiles"] == 1

    def test_compile_to_failure(self, tmp_path, fake_toolchain, monkeypatch):
        monkeypatch.setenv("FAKECC_FAIL", "1")
        svc = make_service(tmp_path, fake_toolchain)
        src = tmp_path / "in.c"
        src.write_text("int x;")
        with pytest.raises(CompileError):
            svc.compile_to(str(tmp_path / "out.o"), "int x;",
                           ["-c", str(src)])
        assert not (tmp_path / "out.o").exists()


@pytest.mark.skipif(not cc_available(), reason="no C compiler")
class TestRealCompiler:
    def test_real_so_is_loadable(self, tmp_path):
        svc = CompileService(jobs=2,
                             cache=ArtifactCache(root=str(tmp_path / "c")))
        path = svc.compile("int the_answer(void) { return 42; }")
        lib = ctypes.CDLL(path)
        assert lib.the_answer() == 42

    def test_module_level_api(self):
        import repro.buildd as buildd
        path = buildd.compile("double half(double x) { return x / 2; }")
        assert os.path.exists(path)
        lib = ctypes.CDLL(path)
        lib.half.restype = ctypes.c_double
        lib.half.argtypes = [ctypes.c_double]
        assert lib.half(3.0) == 1.5
        assert buildd.stats()["submitted"] >= 1
