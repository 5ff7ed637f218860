"""Auto-vectorizer: rewrite shape, the bailout matrix, and bitwise
scalar/vector output equality.

Every equality test compares the level-2 (vectorizing) pipeline against
the scalar interpretation of the same source — the same contract the
differential fuzzer enforces, pinned here on the named hazard cases.
"""

import numpy as np
import pytest

from repro import get_backend, terra
from repro.core import tast
from repro.passes.vectorize import VectorizePass


def typed_fn(source):
    fn = terra(source, env={})
    fn.ensure_typechecked()
    return fn


def for_loops(body):
    return [n for n in tast.walk(body) if isinstance(n, tast.TForNum)]


POINTWISE = """
terra k(a : &float, b : &float, c : &float, n : int) : {}
  for i = 0, n do
    c[i] = a[i] * b[i] + a[i]
  end
end
"""

REDUCE = """
terra k(p : &int, n : int) : int
  var acc = 0
  for i = 0, n do
    acc = acc + p[i]
  end
  return acc
end
"""


class TestRewriteShape:
    def test_pointwise_vectorizes(self):
        fn = typed_fn(POINTWISE)
        assert VectorizePass().run(fn.typed) is True
        # guarded vector loop + scalar epilogue
        loops = for_loops(fn.typed.body)
        assert len(loops) == 2
        steps = [lp.step for lp in loops]
        assert any(s is not None and s.value > 1 for s in steps)
        assert any(s is None for s in steps)

    def test_integer_reduction_vectorizes(self):
        fn = typed_fn(REDUCE)
        assert VectorizePass().run(fn.typed) is True
        assert len(for_loops(fn.typed.body)) == 2

    def test_idempotent(self):
        fn = typed_fn(POINTWISE)
        assert VectorizePass().run(fn.typed) is True
        assert VectorizePass().run(fn.typed) is False


class TestBailouts:
    def bails(self, source):
        fn = typed_fn(source)
        changed = VectorizePass().run(fn.typed)
        return not changed

    def test_non_unit_stride(self):
        assert self.bails("""
        terra k(a : &float, c : &float, n : int) : {}
          for i = 0, n, 2 do
            c[i] = a[i] + 1.0f
          end
        end
        """)

    def test_trapping_body_op(self):
        # integer division can trap; the vector loop would evaluate all
        # lanes unconditionally, so the loop must stay scalar
        assert self.bails("""
        terra k(a : &int, b : &int, c : &int, n : int) : {}
          for i = 0, n do
            c[i] = a[i] / b[i]
          end
        end
        """)

    def test_float_reduction(self):
        # float + is not reassociable: vector-lane merge would change
        # rounding, so float reductions stay scalar
        assert self.bails("""
        terra k(p : &double, n : int) : double
          var acc = 0.0
          for i = 0, n do
            acc = acc + p[i]
          end
          return acc
        end
        """)

    def test_loop_carried_scalar_dependence(self):
        assert self.bails("""
        terra k(p : &int, n : int) : int
          var t = 1
          for i = 0, n do
            t = t * 2 + p[i]
          end
          return t
        end
        """)

    def test_non_loop_index_access(self):
        # p[i + 1] is not the loop index: out of the guarded range
        assert self.bails("""
        terra k(a : &int, c : &int, n : int) : {}
          for i = 0, n do
            c[i] = a[i + 1]
          end
        end
        """)

    def test_call_in_body(self):
        ns = terra("""
        terra g(x : int) : int return x + 1 end
        terra k(c : &int, n : int) : {}
          for i = 0, n do
            c[i] = g(i)
          end
        end
        """, env={})
        ns["k"].ensure_typechecked()
        assert VectorizePass().run(ns["k"].typed) is False

    def test_memoryless_loop(self):
        assert self.bails("""
        terra k(n : int) : int
          var acc = 0
          for i = 0, n do
            acc = acc + i
          end
          return acc
        end
        """)


@pytest.mark.usefixtures("cbackend")
class TestScalarVectorEquality:
    """Level-2 output must be bit-identical to scalar level-1 output."""

    W = 16  # float32 lanes at the default 64-byte vector width

    def run_both(self, src, setup, monkeypatch):
        monkeypatch.delenv("REPRO_TERRA_PIPELINE", raising=False)
        scalar = setup(terra(src, env={}).compile(get_backend("interp")))
        monkeypatch.setenv("REPRO_TERRA_PIPELINE", "2")
        vec_i = setup(terra(src, env={}).compile(get_backend("interp")))
        vec_c = setup(terra(src, env={}).compile(get_backend("c")))
        return scalar, vec_i, vec_c

    @pytest.mark.parametrize("n", [0, 1, 15, 16, 17, 33])
    def test_trip_counts(self, n, monkeypatch):
        """n=0 and n<W run epilogue-only; n=W exactly one vector trip;
        W<n<2W one vector trip plus epilogue."""
        rng = np.random.RandomState(3)
        a = rng.rand(64).astype(np.float32)
        b = rng.rand(64).astype(np.float32)

        def setup(fn):
            c = np.zeros(64, np.float32)
            fn(a, b, c, n)
            return c

        scalar, vec_i, vec_c = self.run_both(POINTWISE, setup, monkeypatch)
        assert np.array_equal(scalar, vec_i)
        assert np.array_equal(scalar, vec_c)

    def test_aliasing_pointers_fall_back_at_runtime(self, monkeypatch):
        """Overlapping views: the disjointness guard must fail closed and
        take the scalar loop, giving scalar (serial) semantics."""
        src = """
        terra k(a : &int, c : &int, n : int) : {}
          for i = 0, n do
            c[i] = a[i] + 1
          end
        end
        """
        base = np.arange(40, dtype=np.int32)

        def setup(fn):
            buf = base.copy()
            fn(buf[0:], buf[1:], 32)   # c[i] aliases a[i+1]
            return buf

        scalar, vec_i, vec_c = self.run_both(src, setup, monkeypatch)
        assert np.array_equal(scalar, vec_i)
        assert np.array_equal(scalar, vec_c)

    def test_in_place_same_base_vectorizes_safely(self, monkeypatch):
        src = """
        terra k(p : &float, n : int) : {}
          for i = 0, n do
            p[i] = p[i] * 2.0f
          end
        end
        """
        base = np.linspace(-8, 8, 48).astype(np.float32)

        def setup(fn):
            buf = base.copy()
            fn(buf, 37)
            return buf

        scalar, vec_i, vec_c = self.run_both(src, setup, monkeypatch)
        assert np.array_equal(scalar, vec_i)
        assert np.array_equal(scalar, vec_c)

    def test_special_float_values(self, monkeypatch):
        """NaN, ±inf, −0.0, and denormals must round-trip bitwise
        through vector loads/stores and lanewise arithmetic."""
        a = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324,
                      1e300, -1e300] * 5, np.float64)
        b = np.array([1.0, 0.0, -0.0, np.nan, -1.0, 2.0, 1e300,
                      np.inf] * 5, np.float64)
        src = """
        terra k(a : &double, b : &double, c : &double, n : int) : {}
          for i = 0, n do
            c[i] = a[i] * b[i] - b[i]
          end
        end
        """

        def setup(fn):
            c = np.zeros(40, np.float64)
            fn(a, b, c, 40)
            return c

        scalar, vec_i, vec_c = self.run_both(src, setup, monkeypatch)
        assert np.array_equal(scalar.view(np.uint64) & ~np.uint64(0),
                              vec_i.view(np.uint64))
        # NaN payloads may differ legitimately between gcc and the
        # interp; compare non-NaN lanes bitwise and NaN lanes as NaN
        nan = np.isnan(scalar)
        assert np.array_equal(np.isnan(vec_c), nan)
        assert np.array_equal(scalar[~nan].view(np.uint64),
                              vec_c[~nan].view(np.uint64))

    def test_subint_wrap_reduction(self, monkeypatch):
        src = """
        terra k(p : &uint8, n : int) : uint8
          var acc = [uint8](0)
          for i = 0, n do
            acc = acc + p[i]
          end
          return acc
        end
        """
        p = np.arange(200, dtype=np.uint8)

        def setup(fn):
            return fn(p, 77)

        scalar, vec_i, vec_c = self.run_both(src, setup, monkeypatch)
        assert scalar == vec_i == vec_c

    def test_forced_width(self, monkeypatch):
        monkeypatch.setenv("REPRO_TERRA_VEC_BYTES", "16")  # 4 float lanes
        rng = np.random.RandomState(9)
        a = rng.rand(32).astype(np.float32)
        b = rng.rand(32).astype(np.float32)

        def setup(fn):
            c = np.zeros(32, np.float32)
            fn(a, b, c, 30)
            return c

        scalar, vec_i, vec_c = self.run_both(POINTWISE, setup, monkeypatch)
        assert np.array_equal(scalar, vec_i)
        assert np.array_equal(scalar, vec_c)


class TestObservability:
    def test_loop_and_bailout_counters(self):
        from repro.trace.metrics import registry
        before_loops = registry().get("vec.loops")
        before_bails = registry().get("vec.bailouts")
        fn = typed_fn(POINTWISE)
        VectorizePass().run(fn.typed)
        assert registry().get("vec.loops") == before_loops + 1
        fn2 = typed_fn("""
        terra k(a : &int, b : &int, c : &int, n : int) : {}
          for i = 0, n do
            c[i] = a[i] / b[i]
          end
        end
        """)
        VectorizePass().run(fn2.typed)
        assert registry().get("vec.bailouts") == before_bails + 1
