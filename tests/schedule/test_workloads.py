"""Differential suite for the three schedule workload families.

Contract (ISSUE 10): for every family, every legal schedule point must
produce output *bit-identical* (floats compared exactly) to the
unscheduled kernel on the same backend — across pipeline levels 0–2 on
a representative point, and across the full ``schedule_points()`` sweep
at the default level on both backends."""

import numpy as np
import pytest

from repro import get_backend
from repro.apps import attention, dequant, scan
from repro.passes.manager import pipeline_override

LEVELS = [0, 1, 2]
BACKENDS = ["interp", "c"]


# -- family runners ---------------------------------------------------------------
# Each builds a fresh kernel for (schedule, backend), runs it on fixed
# deterministic inputs, and returns the output array.  Sizes are small
# (interp runs them too) and deliberately non-divisible by the block/
# unroll/vector sizes in schedule_points, so clamp/remainder/epilogue
# paths all execute.

def run_attention(schedule, backend, n=11, D=16):
    rng = np.random.RandomState(42)
    q = rng.rand(n, D).astype(np.float32)
    k = rng.rand(n, D).astype(np.float32)
    v = rng.rand(n, D).astype(np.float32)
    o = np.zeros((n, D), dtype=np.float32)
    kern = attention.make_attention(D=D, schedule=schedule)
    if schedule and schedule.parallel is not None:
        kern(n, q, k, v, o)  # host-side chunked dispatch (C backend)
    else:
        kern.compile(get_backend(backend))(n, q, k, v, o)
    return o


def run_dequant(schedule, backend, n=9, m=20, kk=7):
    rng = np.random.RandomState(43)
    a = rng.rand(n, kk).astype(np.float32)
    b = rng.randint(-128, 128, size=(kk, m)).astype(np.int8)
    c = np.zeros((n, m), dtype=np.float32)
    kern = dequant.make_dequant_gemm(schedule=schedule)
    args = (n, m, kk, a, b, 0.037, c)
    if schedule and schedule.parallel is not None:
        kern(*args)
    else:
        kern.compile(get_backend(backend))(*args)
    return c


def run_scan(schedule, backend, n=13, R=16):
    rng = np.random.RandomState(44)
    x = rng.rand(n, R).astype(np.float32)
    out = np.zeros((n, R), dtype=np.float32)
    kern = scan.make_scan(R=R, schedule=schedule)
    kern.compile(get_backend(backend))(n, x, out)
    return out


FAMILIES = {
    "attention": (run_attention, attention.schedule_points(),
                  attention.reference, 1e-4),
    "dequant": (run_dequant, dequant.schedule_points(),
                dequant.reference, 1e-2),
    "scan": (run_scan, scan.schedule_points(),
             scan.reference, 1e-3),
}

#: one representative point per family for the level sweep — combines
#: splitting, unrolling, and vectorization so every lowering phase runs
#: under every pipeline level
LEVEL_POINT = {
    "attention": attention.schedule_points()[4],
    "dequant": dequant.schedule_points()[4],
    "scan": scan.schedule_points()[3],
}


def family_params():
    for fam, (_, points, _, _) in FAMILIES.items():
        for p in points:
            yield pytest.param(fam, p, id=f"{fam}-{p.key()}")


class TestDifferential:
    @pytest.mark.parametrize("fam,point", list(family_params()))
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_point_bit_identical(self, fam, point, backend):
        run, _, _, _ = FAMILIES[fam]
        naive = run(None, backend)
        assert np.array_equal(run(point, backend), naive), point.key()

    @pytest.mark.parametrize("fam", list(FAMILIES))
    @pytest.mark.parametrize("level", LEVELS)
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_levels_bit_identical(self, fam, level, backend):
        """Scheduling happens before any pipeline level, so the
        scheduled/naive equality holds at every level 0–2."""
        run, _, _, _ = FAMILIES[fam]
        with pipeline_override(level):
            naive = run(None, backend)
            got = run(LEVEL_POINT[fam], backend)
        assert np.array_equal(got, naive)

    @pytest.mark.parametrize("fam", list(FAMILIES))
    def test_backends_agree(self, fam):
        """interp and C are bit-identical on these kernels (same float32
        operation chains; attention's expf is libm on both paths)."""
        run, _, _, _ = FAMILIES[fam]
        assert np.array_equal(run(None, "interp"), run(None, "c"))


class TestAgainstReference:
    """Sanity: the naive kernels compute the right thing (float64 numpy
    reference within tolerance — not bit-identity)."""

    def test_attention(self):
        n, D = 11, 16
        rng = np.random.RandomState(42)
        q = rng.rand(n, D).astype(np.float32)
        k = rng.rand(n, D).astype(np.float32)
        v = rng.rand(n, D).astype(np.float32)
        got = run_attention(None, "c")
        assert np.allclose(got, attention.reference(q, k, v), atol=1e-4)

    def test_dequant(self):
        n, m, kk = 9, 20, 7
        rng = np.random.RandomState(43)
        a = rng.rand(n, kk).astype(np.float32)
        b = rng.randint(-128, 128, size=(kk, m)).astype(np.int8)
        got = run_dequant(None, "c")
        assert np.allclose(got, dequant.reference(a, b, 0.037), atol=1e-2)

    def test_scan(self):
        rng = np.random.RandomState(44)
        x = rng.rand(13, 16).astype(np.float32)
        got = run_scan(None, "c")
        assert np.allclose(got, scan.reference(x), atol=1e-3)

    def test_scan_handles_n1(self):
        for sched in [None, scan.schedule_points()[1]]:
            x = np.arange(16, dtype=np.float32).reshape(1, 16)
            out = np.zeros_like(x)
            scan.make_scan(R=16, schedule=sched)(1, x, out)
            assert np.array_equal(out, x)
