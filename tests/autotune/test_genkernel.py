"""Tests for the Figure-5 staged GEMM kernel and the full blocked GEMM."""

import numpy as np
import pytest

from repro import double, float_
from repro.autotune.genkernel import genkernel
from repro.autotune.matmul import blocked_matmul, make_gemm, naive_matmul


def _abc(n, dtype, seed=0):
    rng = np.random.RandomState(seed)
    A = np.ascontiguousarray(rng.rand(n, n).astype(dtype))
    B = np.ascontiguousarray(rng.rand(n, n).astype(dtype))
    C = np.zeros((n, n), dtype=dtype)
    return A, B, C


class TestL1Kernel:
    @pytest.mark.parametrize("NB,RM,RN,V", [
        (8, 1, 1, 4), (8, 2, 1, 4), (8, 2, 2, 4), (16, 4, 2, 2),
        (16, 4, 1, 8), (8, 1, 2, 2),
    ])
    def test_single_block_alpha0(self, NB, RM, RN, V):
        k = genkernel(NB, RM, RN, V, 0.0)
        A, B, C = _abc(NB, np.float64)
        k(A, B, C, NB, NB, NB)
        assert np.allclose(C, A @ B)

    def test_alpha1_accumulates(self):
        NB = 8
        k0 = genkernel(NB, 2, 1, 4, 0.0)
        k1 = genkernel(NB, 2, 1, 4, 1.0)
        A, B, C = _abc(NB, np.float64)
        k0(A, B, C, NB, NB, NB)
        k1(A, B, C, NB, NB, NB)
        assert np.allclose(C, 2 * (A @ B))

    def test_alpha0_ignores_garbage(self):
        """The alpha=0 kernel must not read C (0*NaN would poison it)."""
        NB = 8
        k0 = genkernel(NB, 2, 2, 4, 0.0)
        A, B, _ = _abc(NB, np.float64)
        C = np.full((NB, NB), np.nan)
        k0(A, B, C, NB, NB, NB)
        assert np.allclose(C, A @ B)

    def test_alpha_scales(self):
        NB = 8
        k = genkernel(NB, 1, 1, 4, 0.5)
        A, B, C = _abc(NB, np.float64)
        C[:] = 2.0
        k(A, B, C, NB, NB, NB)
        assert np.allclose(C, 1.0 + A @ B)

    def test_strided_block_within_larger_matrix(self):
        """The kernel works on an NB-block inside a larger row-major
        matrix via the ld* strides."""
        NB, N = 8, 16
        k = genkernel(NB, 2, 1, 4, 0.0)
        rng = np.random.RandomState(3)
        A = rng.rand(N, N)
        B = rng.rand(N, N)
        C = np.zeros((N, N))
        # multiply the top-left NB-block of A with the top-left of B
        k(A, B, C, N, N, N)
        assert np.allclose(C[:NB, :NB], A[:NB, :NB] @ B[:NB, :NB])
        assert np.all(C[NB:, :] == 0) and np.all(C[:, NB:] == 0)

    def test_float32_kernel(self):
        NB = 8
        k = genkernel(NB, 2, 2, 4, 0.0, elem=float_)
        A, B, C = _abc(NB, np.float32)
        k(A, B, C, NB, NB, NB)
        assert np.allclose(C, A @ B, atol=1e-4)

    def test_invalid_blocking_rejected(self):
        with pytest.raises(AssertionError):
            genkernel(8, 3, 1, 4, 0.0)  # 8 % 3 != 0

    def test_prefetch_off_same_result(self):
        NB = 8
        A, B, C1 = _abc(NB, np.float64)
        C2 = C1.copy()
        genkernel(NB, 2, 1, 4, 0.0, use_prefetch=True)(A, B, C1, NB, NB, NB)
        genkernel(NB, 2, 1, 4, 0.0, use_prefetch=False)(A, B, C2, NB, NB, NB)
        assert np.array_equal(C1, C2)


class TestFullGemm:
    @pytest.mark.parametrize("N", [32, 64, 96])
    def test_multi_block(self, N):
        gemm = make_gemm(NB=32, RM=4, RN=2, V=4)
        A, B, C = _abc(N, np.float64, seed=N)
        gemm(C, A, B, N)
        assert np.allclose(C, A @ B)

    @pytest.mark.parametrize("N", [30, 69, 100])
    def test_non_divisible_sizes(self, N):
        # regression: the unpacked GEMM used to march full NB-blocks past
        # the matrix edge for N % NB != 0 (out-of-bounds reads/writes and
        # silently wrong results); it now runs a blocked interior plus
        # naive k-tail/edge loops like the packed driver
        gemm = make_gemm(NB=32, RM=4, RN=2, V=4)
        A, B, C = _abc(N, np.float64, seed=N)
        gemm(C, A, B, N)
        assert np.allclose(C, A @ B)

    @pytest.mark.parametrize("N", [30, 69])
    def test_blocked_baseline_non_divisible(self, N):
        A, B, C = _abc(N, np.float64, seed=N)
        blocked_matmul(16)(C, A, B, N)
        assert np.allclose(C, A @ B)

    def test_sgemm(self):
        gemm = make_gemm(NB=32, RM=4, RN=2, V=8, elem=float_)
        A, B, C = _abc(64, np.float32)
        gemm(C, A, B, 64)
        assert np.allclose(C, A @ B, atol=1e-3)

    def test_overwrites_c(self):
        gemm = make_gemm(NB=32, RM=2, RN=2, V=4)
        A, B, C = _abc(32, np.float64)
        C[:] = 123.0  # stale contents must be overwritten, not accumulated
        gemm(C, A, B, 32)
        assert np.allclose(C, A @ B)

    def test_baselines(self):
        A, B, C = _abc(32, np.float64)
        naive_matmul()(C, A, B, 32)
        assert np.allclose(C, A @ B)
        C2 = np.zeros_like(C)
        blocked_matmul(16)(C2, A, B, 32)
        assert np.allclose(C2, A @ B)


class TestTuner:
    def test_small_search(self, c_default):     # not minutes on the interp
        from repro.autotune.tuner import candidates, tune
        cands = candidates(double, NBs=(32,), RMs=(2, 4), RNs=(1,), Vs=(4,))
        result = tune(test_size=128, candidate_list=cands, repeats=1)
        assert result.gflops > 0
        assert result.best in [c for c, _ in result.trials]
        # the returned gemm actually works
        A, B, C = _abc(128, np.float64)
        result.gemm(C, A, B, 128)
        assert np.allclose(C, A @ B)

    def test_constraints_respected(self):
        from repro.autotune.tuner import candidates
        for c in candidates(double):
            assert c.NB % c.RM == 0
            assert c.NB % (c.RN * c.V) == 0
            assert c.RM * c.RN + c.RM + c.RN <= 16

    def test_non_divisible_test_size_times_every_candidate(self):
        # regression: the tuner used to silently drop every candidate
        # whose NB did not divide the test size (for 100 that was all of
        # them, raising "no feasible candidate"); the GEMM makers handle
        # any N via edge loops, so all candidates must be timed
        from repro.autotune.tuner import Candidate, tune
        cands = [Candidate(32, 2, 1, 4), Candidate(48, 2, 1, 4)]
        result = tune(test_size=100,  # not a multiple of 32 or 48
                      candidate_list=cands, repeats=1)
        assert len(result.trials) == len(cands)
        A, B, C = _abc(100, np.float64)
        result.gemm(C, A, B, 100)
        assert np.allclose(C, A @ B)

    def test_empty_candidate_list_raises(self):
        from repro.autotune.tuner import tune
        with pytest.raises(ValueError):
            tune(test_size=64, candidate_list=[], repeats=1)


class TestPackedGemm:
    def test_matches_unpacked(self):
        from repro.autotune.matmul import make_gemm_packed
        N = 128
        rng = np.random.RandomState(5)
        A = np.ascontiguousarray(rng.rand(N, N))
        B = np.ascontiguousarray(rng.rand(N, N))
        C1 = np.zeros((N, N)); C2 = np.zeros((N, N))
        make_gemm(NB=32, RM=4, RN=2, V=4)(C1, A, B, N)
        make_gemm_packed(NB=32, RM=4, RN=2, V=4)(C2, A, B, N)
        assert np.allclose(C1, A @ B) and np.allclose(C2, A @ B)

    @pytest.mark.parametrize("N", [64, 100, 130, 257])
    def test_edge_sizes(self, N):
        """The packed driver handles sizes that are not multiples of NB
        via naive edge cleanup."""
        from repro.autotune.matmul import make_gemm_packed
        gemm = make_gemm_packed(NB=64, RM=4, RN=2, V=4)
        rng = np.random.RandomState(N)
        A = np.ascontiguousarray(rng.rand(N, N))
        B = np.ascontiguousarray(rng.rand(N, N))
        C = np.zeros((N, N))
        gemm(C, A, B, N)
        assert np.allclose(C, A @ B)

    def test_sgemm_packed(self):
        from repro.autotune.matmul import make_gemm_packed
        N = 96
        gemm = make_gemm_packed(NB=32, RM=4, RN=2, V=8, elem=float_)
        rng = np.random.RandomState(1)
        A = rng.rand(N, N).astype(np.float32)
        B = rng.rand(N, N).astype(np.float32)
        C = np.zeros((N, N), dtype=np.float32)
        gemm(C, A, B, N)
        assert np.allclose(C, A @ B, atol=1e-3)


def _pin(source):
    import hashlib
    data = source.encode()
    return hashlib.sha256(data).hexdigest()[:16], len(data)


class TestGoldenC:
    """sha256 prefix + byte length of ``get_c_source()`` captured at the
    commit *before* the three makers became presets of the one
    schedule-driven builder: the staged-from-shared-quotes drivers must
    emit the C the hand-inlined text did.  (``fma=False`` only skips the
    eager build; flags are not part of the source.)"""

    @pytest.mark.parametrize("maker,args,kwargs,pin", [
        ("make_gemm", (16, 2, 1, 4), {}, ("bce7dcc6182703d1", 11528)),
        ("make_gemm", (32, 4, 2, 8), dict(elem=float_),
         ("1782c05f07882277", 16227)),
        ("make_gemm", (32, 4, 2, 1), dict(elem=float_),  # Fig. 6: V=1
         ("15c32d2fd8537aa3", 15548)),
        ("make_gemm_packed", (32, 4, 2, 4), {}, ("d9fb551e6094c372", 17815)),
        ("make_gemm_packed", (128, 4, 2, 4), {},
         ("a7938f3c12a1d6b6", 17843)),
        ("make_gemm_packed", (32, 4, 2, 4), dict(use_prefetch=False),
         ("cc55d8d0f6034ed0", 17597)),
    ])
    def test_serial_presets(self, maker, args, kwargs, pin):
        from repro.autotune import matmul
        gemm = getattr(matmul, maker)(*args, fma=False, **kwargs)
        assert _pin(gemm.get_c_source()) == pin

    def test_parallel_preset(self):
        from repro.autotune.matmul import make_gemm_packed_parallel
        gemm = make_gemm_packed_parallel(32, 2, 2, 4, fma=False)
        assert _pin(gemm.panels.get_c_source()) == ("061d0f61acbd285c", 16204)
        assert _pin(gemm.edges.get_c_source()) == ("7b885422876a2fb9", 3698)

    def test_candidate_schedule_is_the_preset(self):
        from repro.autotune.matmul import make_gemm_from_schedule
        from repro.autotune.tuner import Candidate
        gemm = make_gemm_from_schedule(
            Candidate(32, 4, 2, 4).schedule(packed=True), fma=False)
        assert _pin(gemm.get_c_source()) == ("d9fb551e6094c372", 17815)


class TestScheduleMigration:
    """The tuner's candidate vocabulary as first-class schedules."""

    def test_candidate_schedule_shape(self):
        from repro.autotune.tuner import Candidate
        from repro.schedule import Pack, Tile, Unroll, Vectorize
        s = Candidate(48, 4, 2, 4).schedule()
        assert s.of_kind(Tile) == [Tile(("i", "j"), (48, 48))]
        assert s.of_kind(Vectorize) == [Vectorize("j", 4)]
        assert set(s.of_kind(Unroll)) == {Unroll("i", 4), Unroll("jj", 2)}
        assert {p.operand for p in s.packs} == {"a", "b"}
        # RM=RN=1 candidates carry no Unrolls at all, and the
        # unvectorized kernel (V=1, Figure 6) no Vectorize
        assert Candidate(32, 1, 1, 4).schedule(packed=False).of_kind(
            Unroll) == []
        assert Candidate(32, 2, 1, 1).schedule().of_kind(Vectorize) == []

    def test_schedule_correctness_non_divisible(self):
        from repro.autotune.matmul import make_gemm_from_schedule
        from repro.autotune.tuner import Candidate
        gemm = make_gemm_from_schedule(Candidate(32, 2, 2, 4).schedule())
        A, B, C = _abc(69, np.float64, seed=2)
        gemm(C, A, B, 69)
        assert np.allclose(C, A @ B)

    def test_invalid_gemm_schedules_rejected(self):
        from repro.autotune.matmul import make_gemm_from_schedule
        from repro.schedule import (Block, Pack, Schedule, ScheduleError,
                                    Tile, Unroll, Vectorize)
        base = [Tile(("i", "j"), (32, 32)), Vectorize("j", 4)]
        with pytest.raises(ScheduleError, match="Tile"):
            make_gemm_from_schedule(Schedule([Vectorize("j", 4)]))
        with pytest.raises(ScheduleError, match=r"^Tile\(.*\[32, 16\].*square"):
            make_gemm_from_schedule(
                Schedule([Tile(("i", "j"), (32, 16)), Vectorize("j", 4)]))
        with pytest.raises(ScheduleError, match=r"^Vectorize\('i', 4\)"):
            make_gemm_from_schedule(Schedule(
                [Tile(("i", "j"), (32, 32)), Vectorize("i", 4)]))
        with pytest.raises(ScheduleError, match=r"^Vectorize\('j', 0\)"):
            make_gemm_from_schedule(Schedule(
                [Tile(("i", "j"), (32, 32)), Vectorize("j")]))
        with pytest.raises(ScheduleError, match=r"^Unroll\('k', 2\).*'jj'"):
            make_gemm_from_schedule(Schedule(base + [Unroll("k", 2)]))
        with pytest.raises(ScheduleError, match="divide"):
            make_gemm_from_schedule(
                Schedule([Tile(("i", "j"), (32, 32)), Vectorize("j", 4),
                          Unroll("i", 5)]))
        with pytest.raises(ScheduleError,
                           match=r"^Pack\('a'.*both.*add Pack\('b', 'panel'\)"):
            make_gemm_from_schedule(Schedule(base + [Pack("a", "panel")]))
        with pytest.raises(ScheduleError,
                           match=r"^Block\('k', 8\): no GEMM staging"):
            make_gemm_from_schedule(Schedule(base + [Block("k", 8)]))

    def test_parallel_without_packs_rejected(self):
        # regression: this schedule used to build the *packed* parallel
        # kernel silently, so schedule.key() misdescribed the artifact
        from repro.autotune.matmul import make_gemm_from_schedule
        from repro.autotune.tuner import Candidate
        from repro.schedule import Parallel, Schedule, ScheduleError
        unpacked = Candidate(32, 2, 2, 4).schedule(packed=False)
        with pytest.raises(ScheduleError,
                           match=r"Pack\('a', 'panel'\) and "
                                 r"Pack\('b', 'panel'\)"):
            make_gemm_from_schedule(
                Schedule(list(unpacked) + [Parallel("i_o")]))

    def test_parallel_async_compile_honoured(self):
        # regression: async_compile=True was dropped on the parallel
        # variant (both pieces were built synchronously)
        from repro.autotune.matmul import (gemm_schedule,
                                           make_gemm_from_schedule)
        par = make_gemm_from_schedule(gemm_schedule(32, 2, 2, 4, nthreads=2),
                                      async_compile=True)
        for piece in (par.panels, par.edges):
            assert "c" in piece.dispatcher.pending
            assert "c" not in piece.dispatcher.handles
        A, B, C = _abc(70, np.float64, seed=4)
        par(C, A, B, 70)   # the first call joins both pending builds
        assert np.allclose(C, A @ B)

    @pytest.mark.parametrize("elem,dtype,V", [(double, np.float64, 4),
                                              (float_, np.float32, 8)])
    def test_presets_agree_bit_for_bit(self, elem, dtype, V):
        from repro.autotune.matmul import (make_gemm, make_gemm_packed,
                                           make_gemm_packed_parallel)
        gemms = [make_gemm(32, 2, 2, V, elem),
                 make_gemm_packed(32, 2, 2, V, elem),
                 make_gemm_packed_parallel(32, 2, 2, V, elem, nthreads=3)]
        for N in (70, 133):  # not multiples of NB: edges and k tail run
            A, B, _ = _abc(N, dtype, seed=N)
            results = []
            for gemm in gemms:
                C = np.zeros((N, N), dtype=dtype)
                gemm(C, A, B, N)
                results.append(C.tobytes())
            assert results[0] == results[1] == results[2]
            assert np.allclose(np.frombuffer(results[0], dtype).reshape(N, N),
                               A @ B, atol=1e-8 * N if elem is double
                               else 1e-2)
