"""Orion compiler tests: schedule equivalence is THE invariant —
"the schedule can be changed independently of the algorithm" (§6.2)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import TerraError
from repro.orion import lang as L
from repro.orion.compile import compile_pipeline
from repro.schedule import Parallel, Schedule, Vectorize

N = 24


def vec(width):
    """The loop schedule vectorizing the scanline axis."""
    return Schedule([Vectorize("x", width)])


def zero_pad_ref(img, fn):
    """Apply fn over a zero-padded copy to compute reference reads."""
    P = 4
    padded = np.zeros((N + 2 * P, N + 2 * P), dtype=np.float64)
    padded[P:-P, P:-P] = img

    def read(dx, dy):
        return padded[P + dy:P + dy + N, P + dx:P + dx + N]
    return fn(read).astype(np.float32)


@pytest.fixture
def img():
    return np.random.RandomState(0).rand(N, N).astype(np.float32)


class TestCorrectness:
    def test_identity(self, img):
        f = L.image("f")
        out = compile_pipeline(f(0, 0), N).run(img)
        assert np.allclose(out, img)

    def test_shift_reads_zero_boundary(self, img):
        f = L.image("f")
        out = compile_pipeline(f(1, 0), N).run(img)
        ref = zero_pad_ref(img, lambda r: r(1, 0))
        assert np.allclose(out, ref)

    def test_negative_shifts(self, img):
        f = L.image("f")
        out = compile_pipeline(f(-2, -1), N).run(img)
        ref = zero_pad_ref(img, lambda r: r(-2, -1))
        assert np.allclose(out, ref)

    def test_composed_shift(self, img):
        f = L.image("f")
        shifted = f(1, 0)(1, 1)  # compose offsets without a new stage
        out = compile_pipeline(shifted, N).run(img)
        ref = zero_pad_ref(img, lambda r: r(2, 1))
        assert np.allclose(out, ref)

    def test_arithmetic(self, img):
        f = L.image("f")
        e = (f(0, 0) * 2.0 + 1.0) / 4.0 - f(1, 0)
        out = compile_pipeline(e, N).run(img)
        ref = zero_pad_ref(img, lambda r: (r(0, 0) * 2 + 1) / 4 - r(1, 0))
        assert np.allclose(out, ref, atol=1e-6)

    def test_min_max_clamp(self, img):
        f = L.image("f")
        e = L.clamp(f(0, 0) * 3.0, 0.25, 0.75)
        out = compile_pipeline(e, N).run(img)
        ref = np.clip(img * np.float32(3.0), 0.25, 0.75)
        assert np.allclose(out, ref)

    def test_two_inputs(self, img):
        a, b = L.image("a"), L.image("b")
        pipe = compile_pipeline(a(0, 0) * b(0, 0), N)
        assert set(pipe.input_names) == {"a", "b"}
        other = np.random.RandomState(1).rand(N, N).astype(np.float32)
        args = {name: (img if name == "a" else other)
                for name in pipe.input_names}
        out = pipe.run(*[args[n] for n in pipe.input_names])
        assert np.allclose(out, img * other)

    def test_diamond_dependency(self, img):
        f = L.image("f")
        base = L.stage(f(0, 0) * 2.0, "base")
        left = L.stage(base(-1, 0) + 1.0, "left")
        right = L.stage(base(1, 0) - 1.0, "right")
        out = compile_pipeline(left(0, 0) * right(0, 0), N).run(img)
        # numpy reference computed directly:
        P = 2
        padded = np.zeros((N + 2 * P, N + 2 * P), dtype=np.float32)
        padded[P:-P, P:-P] = img * np.float32(2.0)

        def rd(dx, dy):
            return padded[P + dy:P + dy + N, P + dx:P + dx + N]
        expect = (rd(-1, 0) + 1) * (rd(1, 0) - 1)
        assert np.allclose(out, expect, atol=1e-5)


class TestScheduleEquivalence:
    SCHEDULES = [
        dict(default_policy=L.MATERIALIZE),
        dict(default_policy=L.MATERIALIZE, tile_schedule=vec(4)),
        dict(default_policy=L.INLINE),
        dict(default_policy=L.INLINE, tile_schedule=vec(8)),
    ]

    def _pipeline(self):
        f = L.image("f")
        s1 = L.stage((f(-1, 0) + f(1, 0) + f(0, -1) + f(0, 1)) / 4.0, "s1")
        s2 = L.stage(s1(0, 0) * 0.5 + f(0, 0) * 0.5, "s2")
        return s2(1, 1) - s2(-1, -1)

    def test_all_schedules_identical(self, img):
        results = []
        for kwargs in self.SCHEDULES:
            out = compile_pipeline(self._pipeline(), N, **kwargs).run(img)
            results.append(out)
        for other in results[1:]:
            assert np.allclose(results[0], other, atol=1e-6)

    def test_linebuffer_matches(self, img):
        base = compile_pipeline(self._pipeline(), N).run(img)
        f = L.image("f")
        s1 = L.stage((f(-1, 0) + f(1, 0) + f(0, -1) + f(0, 1)) / 4.0, "s1",
                     policy=L.LINEBUFFER)
        s2 = L.stage(s1(0, 0) * 0.5 + f(0, 0) * 0.5, "s2")
        out = compile_pipeline(s2(1, 1) - s2(-1, -1), N).run(img)
        assert np.allclose(base, out, atol=1e-6)

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.tuples(st.integers(-2, 2), st.integers(-2, 2),
                              st.sampled_from(["+", "-", "*"])),
                    min_size=1, max_size=4),
           st.integers(0, 2))
    def test_property_random_chains(self, steps, which_schedule):
        """Random stencil chains give the same image under every schedule."""
        rng = np.random.RandomState(7)
        image = rng.rand(N, N).astype(np.float32)
        f = L.image("f")
        e = f(0, 0)
        for i, (dx, dy, op) in enumerate(steps):
            stage = L.stage(e, f"st{i}")
            read = stage(dx, dy)
            if op == "+":
                e = read + f(0, 0)
            elif op == "-":
                e = read - 0.5
            else:
                e = read * 0.5
        base = compile_pipeline(e, N).run(image)
        schedule = [dict(default_policy=L.INLINE),
                    dict(tile_schedule=vec(4)),
                    dict(default_policy=L.LINEBUFFER)][which_schedule]
        # linebuffering the output stage itself is not allowed; the
        # compiler forces materialize on outputs, so this always compiles
        out = compile_pipeline(e, N, **schedule).run(image)
        assert np.allclose(base, out, atol=1e-5)


class TestErrors:
    def test_non_constant_offset(self):
        f = L.image("f")
        with pytest.raises(TerraError, match="constant"):
            f(0.5, 0)

    def test_unknown_schedule_entry(self):
        f = L.image("f")
        with pytest.raises(TerraError, match="not in the pipeline"):
            compile_pipeline(f(0, 0), N, schedule={"ghost": "inline"})

    def test_bad_vector_width(self):
        f = L.image("f")
        with pytest.raises(TerraError, match="width"):
            compile_pipeline(f(0, 0), N, tile_schedule=vec(32))

    def test_bad_policy(self):
        f = L.image("f")
        s = L.stage(f(0, 0) + 1.0, "s")
        with pytest.raises(TerraError, match="policy"):
            compile_pipeline(s(0, 0), N, schedule={s: "cached"})

    def test_wrong_image_size(self, img):
        f = L.image("f")
        pipe = compile_pipeline(f(0, 0), N)
        with pytest.raises(TerraError, match="image"):
            pipe.run(np.zeros((N + 1, N + 1), dtype=np.float32))


class TestRuntimeParams:
    def test_param_changes_result_without_recompile(self, img):
        f = L.image("f")
        a = L.param("gain")
        pipe = compile_pipeline(f(0, 0) * a, N)
        assert pipe.param_names == ["gain"]
        assert np.allclose(pipe.run(img, gain=2.0), img * 2, atol=1e-6)
        assert np.allclose(pipe.run(img, gain=0.5), img * np.float32(0.5),
                           atol=1e-6)

    def test_param_in_vectorized_stencil(self, img):
        f = L.image("f")
        a = L.param("a")
        out = (f(0, 0) + a * (f(-1, 0) + f(1, 0))) / (1 + 2 * a)
        pipe = compile_pipeline(out, N, tile_schedule=vec(4))
        assert np.allclose(pipe.run(img, a=0.0), img, atol=1e-6)

    def test_missing_param_rejected(self, img):
        f = L.image("f")
        pipe = compile_pipeline(f(0, 0) * L.param("k"), N)
        with pytest.raises(TerraError, match="missing"):
            pipe.run(img)

    def test_unknown_param_rejected(self, img):
        f = L.image("f")
        pipe = compile_pipeline(f(0, 0) * L.param("k"), N)
        with pytest.raises(TerraError, match="unknown"):
            pipe.run(img, k=1.0, zz=2.0)

    def test_param_cannot_be_shifted(self):
        with pytest.raises(TerraError, match="shifted"):
            L.param("p")(1, 0)


class TestMultiOutput:
    def test_two_outputs(self, img):
        f = L.image("f")
        shared = L.stage((f(-1, 0) + f(1, 0)) * 0.5, "shared")
        a = shared(0, 0) + 1.0
        b = shared(0, 0) * 2.0
        pipe = compile_pipeline([a, b], N)
        assert pipe.output_names == ["out0", "out1"]
        oa, ob = pipe.run(img)
        # the shared producer is computed once, feeding both outputs
        pad = np.zeros((N, N + 2), np.float32)
        pad[:, 1:1 + N] = img
        shared_ref = (pad[:, :N] + pad[:, 2:2 + N]) * np.float32(0.5)
        assert np.allclose(oa, shared_ref + 1, atol=1e-6)
        assert np.allclose(ob, shared_ref * 2, atol=1e-6)

    def test_multi_output_matches_separate(self, img):
        f = L.image("f")
        e1 = f(1, 0) - f(-1, 0)
        e2 = f(0, 1) - f(0, -1)
        sep1 = compile_pipeline(f(1, 0) - f(-1, 0), N).run(img)
        sep2 = compile_pipeline(f(0, 1) - f(0, -1), N).run(img)
        both = compile_pipeline([e1, e2], N, tile_schedule=vec(4)).run(img)
        assert np.allclose(both[0], sep1, atol=1e-6)
        assert np.allclose(both[1], sep2, atol=1e-6)

    def test_output_consumed_by_other_output(self, img):
        f = L.image("f")
        first = L.stage(f(0, 0) * 2.0, "first")
        second = first(1, 0) + 1.0
        pipe = compile_pipeline([first, second], N)
        o1, o2 = pipe.run(img)
        assert np.allclose(o1, img * 2, atol=1e-6)
        pad = np.zeros((N, N + 2), np.float32)
        pad[:, 1:1 + N] = o1
        assert np.allclose(o2, pad[:, 2:2 + N] + 1, atol=1e-6)

    def test_linebuffer_into_multi_output(self, img):
        f = L.image("f")
        mid = L.stage((f(0, -1) + f(0, 1)) * 0.5, "mid", policy=L.LINEBUFFER)
        a = mid(0, 0) + f(0, 0)
        b = mid(0, 0) - f(0, 0)
        base = compile_pipeline([a, b], N).run(img)
        fused = compile_pipeline([a, b], N, tile_schedule=vec(4)).run(img)
        assert np.allclose(base[0], fused[0], atol=1e-6)
        assert np.allclose(base[1], fused[1], atol=1e-6)


class TestTileSchedule:
    """Orion's loop directives are ``repro.schedule`` objects, passed as
    ``tile_schedule=Schedule([Vectorize("x", V), Parallel("y", NT)])``.

    The pins are the sha256 prefix + byte length of the emitted C, as
    is: its names come from the pipeline and its buffers from the
    ``scratch`` parameter, so no process state reaches it."""

    @staticmethod
    def pin(stencil):
        import hashlib
        data = stencil.fn.get_c_source().encode()
        return hashlib.sha256(data).hexdigest()[:16], len(data)

    def blur(self):
        f = L.image("f")
        return L.stage((f(-1, 0) + f(0, 0) + f(1, 0)) / 3.0, "blur")

    def test_vectorize_golden_c(self, img):
        pipe = compile_pipeline(self.blur(), N, tile_schedule=vec(4))
        assert self.pin(pipe) == ("46228b826a838893", 2279)
        assert pipe.parallel_plan is None
        plain = compile_pipeline(self.blur(), N)
        assert np.array_equal(pipe.run(img), plain.run(img))

    def test_parallel_golden_c(self, img, monkeypatch, cbackend):
        monkeypatch.delenv("REPRO_TERRA_THREADS", raising=False)
        pipe = compile_pipeline(
            self.blur(), N,
            tile_schedule=Schedule([Vectorize("x", 4), Parallel("y", 2)]))
        assert self.pin(pipe) == ("59bff1a7943b0716", 2817)
        assert pipe.parallel_plan["nthreads"] == 2
        plain = compile_pipeline(self.blur(), N)
        assert np.array_equal(pipe.run(img), plain.run(img))

    def test_parallel_dispatch_is_accounted_like_parallel_for(
            self, img, monkeypatch, cbackend):
        from repro.trace.metrics import registry
        monkeypatch.delenv("REPRO_TERRA_THREADS", raising=False)
        pipe = compile_pipeline(
            self.blur(), N, tile_schedule=Schedule([Parallel("y", 2)]))
        reg = registry()
        before = (reg.get("parallel.dispatches"), reg.get("parallel.chunks"),
                  (reg.timing("parallel.for") or {"runs": 0})["runs"])
        pipe.run(img)
        assert (reg.get("parallel.dispatches"), reg.get("parallel.chunks"),
                reg.timing("parallel.for")["runs"]) == \
            (before[0] + 1, before[1] + 2, before[2] + 1)

    def test_schedule_recorded_on_the_stencil(self):
        s = compile_pipeline(self.blur(), N, tile_schedule=vec(8))
        assert s.tile_schedule.of_kind(Vectorize) == [Vectorize("x", 8)]
        assert compile_pipeline(self.blur(), N).tile_schedule.key() \
            == "naive"

    def test_unsupported_directives_rejected(self):
        from repro.schedule import Block, ScheduleError
        with pytest.raises(ScheduleError, match="scanline axis 'x'"):
            compile_pipeline(self.blur(), N,
                             tile_schedule=Schedule([Vectorize("y", 4)]))
        with pytest.raises(ScheduleError, match="explicit width"):
            compile_pipeline(self.blur(), N,
                             tile_schedule=Schedule([Vectorize("x")]))
        with pytest.raises(ScheduleError, match="Block"):
            compile_pipeline(self.blur(), N,
                             tile_schedule=Schedule([Block("x", 8)]))
        with pytest.raises(ScheduleError, match="must be a repro.schedule"):
            compile_pipeline(self.blur(), N, tile_schedule=4)


class TestNoProcessState:
    """A compiled stencil is a function of (pipeline, N, schedule) alone:
    it is named from the pipeline and keeps its zero row and intermediate
    buffers in the ``scratch`` array it is called with."""

    @staticmethod
    def two_stage(k=2.0):
        f = L.image("f")
        blur = L.stage((f(-1, 0) + f(0, 0) + f(1, 0)) / 3.0, "blur")
        mid = L.stage(blur(0, -1) + blur(0, 1), "mid", policy=L.LINEBUFFER)
        return mid(0, 0) * k

    def test_the_same_pipeline_is_the_same_c_and_one_compile(self, img,
                                                             cbackend):
        import uuid
        from repro import buildd
        k = 1.0 + uuid.uuid4().int % 10**9 / 1e12     # never compiled before
        before = buildd.stats()["compiles"]
        a = compile_pipeline(self.two_stage(k), N, tile_schedule=vec(4))
        b = compile_pipeline(self.two_stage(k), N, tile_schedule=vec(4))
        for pipe in (a, b):
            pipe.fn.compile("c")
        assert buildd.stats()["compiles"] == before + 1
        assert a.fn.get_c_source() == b.fn.get_c_source()
        assert np.array_equal(a.run(img), b.run(img))

    def test_scratch_slots_are_16_float_aligned(self):
        import re
        pipe = compile_pipeline(self.two_stage(), N, tile_schedule=vec(4))
        offsets = [int(o) for o in
                   re.findall(r"buf\d+_\w+ = scratch \+ (\d+)", pipe.source)]
        assert len(offsets) == 2
        assert all(o % 16 == 0 for o in offsets)
        assert pipe.scratch.size % 16 == 0 and pipe.scratch.size > max(offsets)

    def test_a_dropped_stencil_frees_its_scratch(self, img):
        import gc
        import weakref
        pipe = compile_pipeline(self.two_stage(), N)
        pipe.run(img)
        scratch = weakref.ref(pipe.scratch)
        del pipe
        gc.collect()
        assert scratch() is None
