"""Chunked twins and parallel_for: a loop kernel's ``[lo, hi)`` variant
is staged, so every backend runs it."""

import numpy as np
import pytest

from repro import terra
from repro.errors import CompileError, TrapError
from repro.parallel import parallel_for


def make_saxpy():
    return terra("""
    terra saxpy(n : int64, a : float, x : &float, y : &float) : {}
      for i = 0, n do
        y[i] = a * x[i] + y[i]
      end
    end
    """)


class TestChunkEntry:
    def test_chunks_cover_exactly_the_serial_iterates(self, backend):
        fn = make_saxpy()
        n = 100
        x = np.arange(n, dtype=np.float32)
        ref = np.ones(n, dtype=np.float32)
        fn.compile(backend)(n, 2.0, x, ref)

        got = np.ones(n, dtype=np.float32)
        h = fn.chunked.compile(backend)
        for lo, hi in [(0, 13), (13, 60), (60, 100)]:
            h(lo, hi, n, 2.0, x, got)
        assert got.tobytes() == ref.tobytes()
        # parallel_for: the same cuts through the prepared caller
        got[:] = 1
        run = h.tail_caller(2, n, 2.0, x, got)
        for lo, hi in [(0, 13), (13, 60), (60, 100)]:
            run(lo, hi)
        assert got.tobytes() == ref.tobytes()

    def test_out_of_range_chunk_is_a_noop(self, backend):
        fn = make_saxpy()
        n = 10
        x = np.ones(n, dtype=np.float32)
        y = np.zeros(n, dtype=np.float32)
        fn.chunked.compile(backend)(50, 90, n, 1.0, x, y)
        assert not y.any()

    def test_strided_loop_misaligned_cuts(self, backend):
        # iterates are 0, 3, 6, ...; a cut not on a stride multiple must
        # not duplicate or skip any iterate — in the loop variable's own
        # type, here int32
        fn = terra("""
        terra stamp(n : int32, out : &int) : {}
          for i = 0, n, 3 do
            out[i] = out[i] + 1
          end
        end
        """)
        n = 30
        ref = np.zeros(n, dtype=np.int32)
        fn.compile(backend)(n, ref)
        got = np.zeros(n, dtype=np.int32)
        h = fn.chunked.compile(backend)
        for lo, hi in [(0, 4), (4, 11), (11, 30)]:
            h(lo, hi, n, got)
        assert np.array_equal(got, ref)
        # the start advance divides by the constant step: nothing to trap,
        # so the twin's C carries no trap machinery and no guarded entry
        assert "_tentry" not in fn.chunked.get_c_source()

    def test_chunked_requires_final_loop(self):
        fn = terra("""
        terra noloop(x : int) : {}
          var y = x + 1
        end
        """)
        with pytest.raises(CompileError, match="must end in a numeric for"):
            fn.chunked
        returns = terra("""
        terra sum(n : int) : int
          var s = 0
          for i = 0, n do s = s + i end
          return s
        end
        """)
        with pytest.raises(CompileError, match="must return nothing"):
            returns.chunked
        descends = terra("""
        terra down(n : int, x : &int) : {}
          for i = n, 0, -1 do x[i] = 0 end
        end
        """)
        with pytest.raises(CompileError, match="must ascend"):
            descends.chunked

    def test_chunked_after_compile_is_staged(self, backend):
        # the twin is an ordinary function of its own: taking it after the
        # kernel ran (its schedule lowered too) stages it, once
        from repro.schedule import Block, apply
        k = apply(make_saxpy(), Block("i", 8))
        n = 20
        x = np.ones(n, dtype=np.float32)
        y = np.zeros(n, dtype=np.float32)
        k.compile(backend)(n, 1.0, x, y)
        twin = k.fn.chunked
        assert twin is k.fn.chunked and twin.name == "saxpy_chunk"
        assert twin.schedule == k.schedule
        twin.compile(backend)(5, 17, n, 1.0, x, y)
        assert list(y) == [1.0] * 5 + [2.0] * 12 + [1.0] * 3


class TestParallelFor:
    def test_bit_identical_to_serial(self):
        fn = make_saxpy()
        n = 1000
        x = np.random.RandomState(0).rand(n).astype(np.float32)
        ref = np.ones(n, dtype=np.float32)
        par = np.ones(n, dtype=np.float32)
        fn(n, 1.5, x, ref)
        parallel_for(fn.chunked, 0, n, n, 1.5, x, par, nthreads=4)
        assert par.tobytes() == ref.tobytes()

    def test_grain_aligns_cuts(self):
        # with grain=n a single chunk runs inline — still correct
        fn = make_saxpy()
        n = 64
        x = np.ones(n, dtype=np.float32)
        y = np.zeros(n, dtype=np.float32)
        parallel_for(fn.chunked, 0, n, n, 2.0, x, y, nthreads=4, grain=n)
        assert np.array_equal(y, np.full(n, 2.0, dtype=np.float32))

    def test_empty_range_is_a_noop(self):
        fn = make_saxpy()
        x = np.ones(4, dtype=np.float32)
        y = np.zeros(4, dtype=np.float32)
        parallel_for(fn.chunked, 3, 3, 4, 2.0, x, y, nthreads=4)
        assert not y.any()

    def test_python_callable_fallback(self):
        hits = []

        def kernel(lo, hi, tag):
            hits.append((lo, hi, tag))

        parallel_for(kernel, 0, 100, "t", nthreads=2)
        assert sum(hi - lo for lo, hi, _ in hits) == 100
        assert all(tag == "t" for _, _, tag in hits)

    def test_traced_chunks_land_in_distinct_worker_lanes(self, tmp_path):
        """Two chunks that must overlap (each waits for the other) show
        up as two worker lanes in the exported trace."""
        import json
        import threading

        from repro import trace
        both_running = threading.Barrier(2, timeout=10)
        trace.enable()
        try:
            parallel_for(lambda lo, hi: both_running.wait(), 0, 64,
                         nthreads=2)
            doc = json.load(open(
                trace.export_chrome(str(tmp_path / "lanes.json"))))
        finally:
            trace.disable()
            trace.clear()
        assert trace.validate_chrome(doc) == []
        chunks = [e for e in doc["traceEvents"]
                  if e["name"].startswith("parallel.chunk:")]
        assert len({e["tid"] for e in chunks}) == 2, chunks

    def test_env_one_forces_serial_dispatch(self, monkeypatch):
        monkeypatch.setenv("REPRO_TERRA_THREADS", "1")
        calls = []
        parallel_for(lambda lo, hi: calls.append((lo, hi)), 0, 50,
                     nthreads=8)
        assert calls == [(0, 50)]  # one inline chunk, no pool


class TestWorkerTraps:
    def test_trap_surfaces_once_and_pool_survives(self):
        # i == 7 divides by zero: only the chunk containing it traps
        fn = terra("""
        terra poison(n : int64, out : &int64) : {}
          for i = 0, n do
            out[i] = 1000 / (i - 7)
          end
        end
        """)
        n = 64
        out = np.zeros(n, dtype=np.int64)
        with pytest.raises(TrapError, match="division"):
            parallel_for(fn.chunked, 0, n, n, out, nthreads=4)
        # chunks that did not trap completed their writes (C division
        # truncates toward zero: 1000 / -7 == -142)
        assert out[0] == -142
        # the pool is not wedged: the next dispatch works
        ok = np.zeros(n, dtype=np.float32)
        x = np.ones(n, dtype=np.float32)
        parallel_for(make_saxpy().chunked, 0, n, n, 2.0, x, ok, nthreads=4)
        assert np.array_equal(ok, np.full(n, 2.0, dtype=np.float32))

    def test_traps_counted_in_metrics(self):
        from repro.trace.metrics import registry
        fn = terra("""
        terra alltrap(n : int64, out : &int64) : {}
          for i = 0, n do
            out[i] = 1 / (0 * i)
          end
        end
        """)
        out = np.zeros(32, dtype=np.int64)
        before = registry().get("parallel.traps")
        with pytest.raises(TrapError):
            parallel_for(fn.chunked, 0, 32, 32, out, nthreads=4)
        assert registry().get("parallel.traps") > before


class TestNestedDispatch:
    def test_nested_parallel_for_runs_inline(self):
        from repro.parallel import run_tasks

        inner_calls = []

        def inner(lo, hi):
            inner_calls.append((lo, hi))

        def outer():
            parallel_for(inner, 0, 10, nthreads=4)

        errors = run_tasks([outer], nthreads=2)
        assert errors == [None]
        assert inner_calls == [(0, 10)]  # one inline chunk, no deadlock
