"""WorkerPool / split_range / default_nthreads — the dispatch plumbing."""

import threading

import pytest

from repro.errors import ConfigError
from repro.parallel import (default_nthreads, get_pool, in_worker,
                            shutdown_pool, split_range, WorkerPool)


class TestSplitRange:
    def test_covers_range_exactly_once(self):
        for lo, hi, n in [(0, 100, 4), (0, 7, 3), (-5, 11, 2), (3, 4, 8)]:
            chunks = split_range(lo, hi, n)
            assert chunks[0][0] == lo and chunks[-1][1] == hi
            for (a0, a1), (b0, b1) in zip(chunks, chunks[1:]):
                assert a1 == b0  # contiguous, disjoint
            assert sum(c1 - c0 for c0, c1 in chunks) == hi - lo

    def test_empty_and_single(self):
        assert split_range(5, 5, 4) == []
        assert split_range(5, 3, 4) == []
        assert split_range(0, 10, 1) == [(0, 10)]

    def test_never_more_than_nparts(self):
        assert len(split_range(0, 3, 16)) <= 3

    def test_alignment(self):
        chunks = split_range(0, 100, 3, align=16)
        # every interior cut is a multiple of 16 above lo
        for c0, c1 in chunks[:-1]:
            assert c1 % 16 == 0
        assert chunks[-1][1] == 100
        # alignment coarser than the range degenerates to one chunk
        assert split_range(0, 10, 4, align=64) == [(0, 10)]

    def test_alignment_relative_to_lo(self):
        chunks = split_range(5, 105, 2, align=10)
        assert (chunks[0][1] - 5) % 10 == 0


class TestDefaultNthreads:
    def test_env_overrides_request(self, monkeypatch):
        monkeypatch.setenv("REPRO_TERRA_THREADS", "3")
        assert default_nthreads(8) == 3
        assert default_nthreads(0) == 3

    def test_env_one_disables(self, monkeypatch):
        monkeypatch.setenv("REPRO_TERRA_THREADS", "1")
        assert default_nthreads(16) == 1

    def test_request_wins_without_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_TERRA_THREADS", raising=False)
        assert default_nthreads(5) == 5

    def test_garbage_env_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_TERRA_THREADS", "lots")
        with pytest.raises(ConfigError, match="REPRO_TERRA_THREADS"):
            default_nthreads(2)

    def test_zero_clamps_to_serial(self, monkeypatch):
        monkeypatch.setenv("REPRO_TERRA_THREADS", "0")
        assert default_nthreads(8) == 1


class TestWorkerPool:
    def test_runs_every_thunk(self):
        pool = WorkerPool(3)
        try:
            hits = []
            lock = threading.Lock()

            def mk(i):
                def t():
                    with lock:
                        hits.append(i)
                return t

            errors = pool.run([mk(i) for i in range(20)])
            assert sorted(hits) == list(range(20))
            assert errors == [None] * 20
        finally:
            pool.shutdown()

    def test_errors_fill_their_slot_and_pool_survives(self):
        pool = WorkerPool(2)
        try:
            def boom():
                raise ValueError("boom")

            errors = pool.run([boom, lambda: None, boom])
            assert isinstance(errors[0], ValueError)
            assert errors[1] is None
            assert isinstance(errors[2], ValueError)
            # the same pool keeps working after failures
            assert pool.run([lambda: None]) == [None]
        finally:
            pool.shutdown()

    def test_workers_report_in_worker(self):
        pool = WorkerPool(1)
        try:
            seen = []
            pool.run([lambda: seen.append(in_worker())])
            assert seen == [True]
            assert not in_worker()
        finally:
            pool.shutdown()

    def test_shutdown_is_idempotent(self):
        pool = WorkerPool(2)
        pool.shutdown()
        pool.shutdown()
        with pytest.raises(RuntimeError):
            pool.run([lambda: None])

    def test_worker_thread_names(self):
        pool = WorkerPool(2, name_prefix="repro-parallel")
        try:
            names = []
            lock = threading.Lock()

            def record():
                with lock:
                    names.append(threading.current_thread().name)

            pool.run([record] * 8)
            assert all(n.startswith("repro-parallel-") for n in names)
        finally:
            pool.shutdown()


class TestSharedPool:
    def test_grows_never_shrinks(self):
        shutdown_pool()
        try:
            p2 = get_pool(2)
            assert p2.nthreads == 2
            p4 = get_pool(4)
            assert p4.nthreads == 4
            assert get_pool(2) is p4  # smaller requests reuse it
        finally:
            shutdown_pool()
