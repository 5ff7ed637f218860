"""Schedule lowering: rewrite shapes, strict-mode rejection matrix,
apply() misuse, the env kill-switch, Parallel dispatch, and the
vectorizer-bailout accounting regression (one bail per *original* loop,
not per generated tile/unroll instance — PR 8 semantics)."""

import numpy as np
import pytest

from repro import terra
from repro.core import tast
from repro.errors import ScheduleError
from repro.passes import pipelined_body
from repro.passes.vectorize import VectorizePass
from repro.schedule import (Block, Pack, Parallel, Schedule, Tile, Unroll,
                            Vectorize, apply, fuzz_schedule)
from repro.trace.metrics import registry

SAXPY = """
terra saxpy(n : int64, a : float, x : &float, y : &float) : {}
  for i = 0, n do
    y[i] = a * x[i] + y[i]
  end
end
"""

ADDMAT = """
terra addmat(n : int64, m : int64, a : &float, b : &float,
             c : &float) : {}
  for i = 0, n do
    for j = 0, m do
      c[i * m + j] = a[i * m + j] + b[i * m + j]
    end
  end
end
"""

ADDMAT_ROWPTR = """
terra addrows(n : int64, m : int64, a : &float, b : &float,
              c : &float) : {}
  for i = 0, n do
    var arow = a + i * m
    var brow = b + i * m
    var crow = c + i * m
    for j = 0, m do
      crow[j] = arow[j] + brow[j]
    end
  end
end
"""


def build(src, schedule=None, env=None):
    fn = terra(src, env=env or {})
    if schedule is not None:
        return apply(fn, schedule)
    return fn


def lower(kernel):
    """Typecheck and run only the schedule stage (level 0 = no other
    passes); returns the typed function for shape inspection."""
    kernel.ensure_typechecked()
    pipelined_body(kernel.typed, 0)
    return kernel.typed


def for_loops(body):
    return [n for n in tast.walk(body) if isinstance(n, tast.TForNum)]


def loop_names(body):
    return [lp.symbol.displayname for lp in for_loops(body)]


class TestRewriteShape:
    def test_block_splits_into_chunk_plus_clamped_inner(self):
        typed = lower(build(SAXPY, Schedule([Block("i", 8)])))
        names = loop_names(typed.body)
        assert names == ["i_o", "i"]
        # the chunked-entry contract: final top-level stmt stays a loop
        assert isinstance(typed.body.statements[-1], tast.TForNum)

    def test_unroll_emits_main_plus_remainder(self):
        typed = lower(build(SAXPY, Schedule([Unroll("i", 4)])))
        loops = for_loops(typed.body)
        assert len(loops) == 2
        main, rem = loops
        assert main.step is not None and main.step.value == 4
        assert rem.step is None or rem.step.value == 1

    def test_vectorize_marks_generated_loops(self):
        typed = lower(build(SAXPY, Schedule([Vectorize("i", 8)])))
        assert any(getattr(lp, "_vec_generated", False)
                   for lp in for_loops(typed.body))

    def test_tile_interchanges_chunk_loops_outside(self):
        typed = lower(build(ADDMAT, Schedule([Tile(("i", "j"), (4, 8))])))
        names = loop_names(typed.body)
        # both chunk loops run outside both intra-tile loops
        assert names.index("i_o") < names.index("i")
        assert names.index("j_o") < names.index("j")
        assert names.index("j_o") < names.index("i")

    def test_lowering_is_idempotent_per_function(self):
        k = build(SAXPY, Schedule([Block("i", 8)]))
        typed = lower(k)
        shape = loop_names(typed.body)
        pipelined_body(typed, 0)  # second entry must not re-lower
        assert loop_names(typed.body) == shape


class TestBitIdentity:
    """Every legal rewrite is exact: scheduled output equals naive
    output bit-for-bit on the same backend."""

    N, M = 37, 13

    def _saxpy(self, schedule, backend):
        rng = np.random.RandomState(7)
        x = rng.rand(self.N).astype(np.float32)
        y = rng.rand(self.N).astype(np.float32)
        h = build(SAXPY, schedule).compile(backend)
        h(self.N, 1.5, x, y)
        return y

    def _addmat(self, schedule, backend):
        rng = np.random.RandomState(8)
        a = rng.rand(self.N * self.M).astype(np.float32)
        b = rng.rand(self.N * self.M).astype(np.float32)
        c = np.zeros(self.N * self.M, dtype=np.float32)
        h = build(ADDMAT, schedule).compile(backend)
        h(self.N, self.M, a, b, c)
        return c

    @pytest.mark.parametrize("schedule", [
        Schedule([Block("i", 8)]),
        Schedule([Unroll("i", 3)]),
        Schedule([Vectorize("i", 8)]),
        Schedule([Block("i", 8), Unroll("i", 2)]),
    ], ids=lambda s: s.key())
    @pytest.mark.parametrize("backend", ["interp", "c"], indirect=True)
    def test_saxpy_points(self, schedule, backend):
        naive = self._saxpy(None, backend)
        assert np.array_equal(self._saxpy(schedule, backend), naive)

    @pytest.mark.parametrize("schedule", [
        Schedule([Tile(("i", "j"), (4, 8))]),
        Schedule([Tile(("i", "j"), (8, 4)), Unroll("j", 2)]),
        Schedule([Block("j", 5)]),
    ], ids=lambda s: s.key())
    @pytest.mark.parametrize("backend", ["interp", "c"], indirect=True)
    def test_addmat_points(self, schedule, backend):
        naive = self._addmat(None, backend)
        assert np.array_equal(self._addmat(schedule, backend), naive)


class TestStrictRejection:
    """Nest-dependent conflicts raise ScheduleError at lowering time,
    naming the offending directive."""

    def expect(self, src, schedule, match):
        k = build(src, schedule)
        with pytest.raises(ScheduleError, match=match):
            lower(k)

    def test_unknown_axis(self):
        self.expect(SAXPY, Schedule([Block("k", 8)]), "not found")

    def test_a_rejected_schedule_stays_rejected(self):
        """No request records a lowering that raised: a second compile
        may not quietly build the unscheduled kernel."""
        k = build(SAXPY, Schedule([Block("k", 8)]))
        for backend in ("interp", "c"):
            with pytest.raises(ScheduleError, match="not found"):
                k.compile(backend)

    def test_ambiguous_axis(self):
        two_i = """
        terra two(n : int64, x : &float) : {}
          for i = 0, n do x[i] = x[i] + 1.0f end
          for i = 0, n do x[i] = x[i] * 2.0f end
        end
        """
        self.expect(two_i, Schedule([Block("i", 8)]), "ambiguous")

    def test_vectorize_not_innermost(self):
        self.expect(ADDMAT, Schedule([Vectorize("i", 8)]),
                    "not innermost")

    def test_vectorize_bailing_body(self):
        fsum = """
        terra fsum(n : int64, x : &float, out : &float) : {}
          var acc = 0.0f
          for i = 0, n do acc = acc + x[i] end
          out[0] = acc
        end
        """
        self.expect(fsum, Schedule([Vectorize("i", 8)]),
                    "vectorizer bailed")

    def test_tile_imperfect_nest(self):
        self.expect(ADDMAT_ROWPTR, Schedule([Tile(("i", "j"), (4, 4))]),
                    "perfect nest")

    def test_tile_wrong_order(self):
        self.expect(ADDMAT, Schedule([Tile(("j", "i"), (4, 4))]),
                    "perfect nest")

    def test_parallel_not_final_loop(self):
        self.expect(ADDMAT, Schedule([Parallel("j")]),
                    "final top-level loop")

    def test_parallel_computed_bounds(self):
        scaled = """
        terra scaled(n : int64, x : &float) : {}
          for i = 0, n * 2 do x[i] = x[i] + 1.0f end
        end
        """
        self.expect(scaled, Schedule([Parallel("i")]),
                    "constants or whole parameters")

    def test_non_unit_step(self):
        stepped = """
        terra stepped(n : int64, x : &float) : {}
          for i = 0, n, 2 do x[i] = x[i] + 1.0f end
        end
        """
        self.expect(stepped, Schedule([Block("i", 8)]), "non-unit step")

    def test_break_in_body(self):
        breaky = """
        terra breaky(n : int64, x : &float) : {}
          for i = 0, n do
            if x[i] > 10.0f then break end
            x[i] = x[i] + 1.0f
          end
        end
        """
        self.expect(breaky, Schedule([Block("i", 8)]), "break")

    def test_error_names_the_directive(self):
        k = build(SAXPY, Schedule([Block("z", 8)]))
        with pytest.raises(ScheduleError, match=r"Block\('z', 8\)"):
            lower(k)


class TestApplyMisuse:
    def test_after_typecheck(self):
        fn = terra(SAXPY, env={})
        fn.ensure_typechecked()
        with pytest.raises(ScheduleError, match="already typechecked"):
            apply(fn, Schedule([Block("i", 8)]))

    def test_double_apply(self):
        fn = terra(SAXPY, env={})
        apply(fn, Schedule([Block("i", 8)]))
        with pytest.raises(ScheduleError, match="already has a schedule"):
            apply(fn, Schedule([Unroll("i", 2)]))

    def test_non_terra_function(self):
        with pytest.raises(ScheduleError):
            apply(lambda n: n, Schedule([Block("i", 8)]))

    def test_strict_pack_rejected(self):
        fn = terra(SAXPY, env={})
        with pytest.raises(ScheduleError, match="Pack"):
            apply(fn, Schedule([Pack("x", "panel")]))

    def test_bare_directive_shorthand(self):
        k = apply(terra(SAXPY, env={}), Block("i", 8))
        assert k.schedule == Schedule([Block("i", 8)])

    def test_scheduled_kernel_delegates(self):
        k = apply(terra(SAXPY, env={}), Block("i", 8))
        assert k.name == "saxpy"
        assert "saxpy" in repr(k) and "Block" in repr(k)


class TestEnvDisable:
    def test_disable_skips_lowering(self, monkeypatch):
        monkeypatch.setenv("REPRO_TERRA_DISABLE_PASSES", "schedule")
        typed = lower(build(SAXPY, Schedule([Block("i", 8)])))
        assert loop_names(typed.body) == ["i"]  # untouched

    def test_disable_dispatches_serially(self, monkeypatch):
        monkeypatch.setenv("REPRO_TERRA_DISABLE_PASSES", "schedule")
        k = build(SAXPY, Schedule([Parallel("i")]))
        x = np.ones(8, dtype=np.float32)
        y = np.ones(8, dtype=np.float32)
        k(8, 2.0, x, y)  # serial fallback, no chunked twin staged
        assert np.array_equal(y, np.full(8, 3.0, dtype=np.float32))


class TestParallelDispatch:
    def test_parallel_matches_serial(self, cbackend):
        n = 133
        rng = np.random.RandomState(11)
        x = rng.rand(n).astype(np.float32)
        y0 = rng.rand(n).astype(np.float32)
        y1 = y0.copy()
        build(SAXPY).compile(cbackend)(n, 1.5, x, y0)
        k = build(SAXPY, Schedule([Block("i", 16), Parallel("i")]))
        k(n, 1.5, x, y1)  # host-side parallel_for over the chunked twin
        assert np.array_equal(y1, y0)

    def test_grain_comes_from_split(self):
        k = build(SAXPY, Schedule([Block("i", 16), Parallel("i")]))
        assert k.schedule.split_size("i") == 16
        # the twin the workers run carries the schedule minus Parallel
        assert k.fn.chunked.schedule == Schedule([Block("i", 16)])


class TestLenient:
    def test_fuzz_schedule_skips_missing_axes(self):
        before = registry().get("sched.skipped")
        typed = lower(build(SAXPY, fuzz_schedule()))
        # "i" blocked; i1/i2/i3 skipped without error
        assert "i_o" in loop_names(typed.body)
        assert registry().get("sched.skipped") - before >= 3

    def test_lenient_applies_to_all_matching_loops(self):
        two_i = """
        terra two(n : int64, x : &float) : {}
          for i = 0, n do x[i] = x[i] + 1.0f end
          for i = 0, n do x[i] = x[i] * 2.0f end
        end
        """
        typed = lower(build(two_i, Schedule([Block("i", 3)],
                                            strict=False)))
        assert loop_names(typed.body).count("i_o") == 2

    def test_lenient_identical_results(self, cbackend):
        n = 29
        rng = np.random.RandomState(13)
        x = rng.rand(n).astype(np.float32)
        y0 = rng.rand(n).astype(np.float32)
        y1 = y0.copy()
        build(SAXPY).compile(cbackend)(n, 1.5, x, y0)
        sk = build(SAXPY, fuzz_schedule())
        sk.compile(cbackend)(n, 1.5, x, y1)
        assert np.array_equal(y1, y0)


class TestBailoutAccounting:
    """Regression: schedule-generated loop copies share one bailout.

    PR 8's contract is one ``vec.bailouts`` tick per loop the programmer
    wrote.  Block/Unroll turn one loop into several instances that all
    still run the same body; without origin dedup a single bailing loop
    would count once per instance."""

    BAIL = """
    terra bail(n : int64, a : &int, b : &int, c : &int) : {}
      for i = 0, n do
        c[i] = a[i] / b[i]
      end
    end
    """

    TWO_BAILS = """
    terra two(n : int64, a : &int, b : &int, c : &int) : {}
      for i = 0, n do
        c[i] = a[i] / b[i]
      end
      for j = 0, n do
        c[j] = a[j] / b[j]
      end
    end
    """

    def bail_delta(self, src, schedule=None):
        k = build(src, schedule)
        typed = lower(k)
        before = registry().get("vec.bailouts")
        VectorizePass().run(typed)
        return registry().get("vec.bailouts") - before

    def test_plain_loop_counts_one(self):
        assert self.bail_delta(self.BAIL) == 1

    @pytest.mark.parametrize("schedule", [
        Schedule([Unroll("i", 2)]),
        Schedule([Block("i", 3)]),
        Schedule([Block("i", 8), Unroll("i", 2)]),
    ], ids=lambda s: s.key())
    def test_split_loop_still_counts_one(self, schedule):
        assert self.bail_delta(self.BAIL, schedule) == 1

    def test_distinct_loops_still_count_separately(self):
        assert self.bail_delta(self.TWO_BAILS) == 2

    def test_split_plus_plain_counts_two(self):
        assert self.bail_delta(self.TWO_BAILS,
                               Schedule([Unroll("i", 2)])) == 2
