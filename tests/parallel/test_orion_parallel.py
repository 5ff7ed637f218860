"""The Orion ``Parallel("y", NT)`` loop directive.

Contract: a parallel schedule is *pure speedup* — for every policy mix,
vector width, and worker count, the output is bit-identical to the
serial schedule, and with an effective thread count of 1 the generated
source is the serial source, byte for byte.
"""

import numpy as np
import pytest

from repro.errors import TerraError
from repro.orion import (INLINE, LINEBUFFER, MATERIALIZE, compile_pipeline,
                         image, stage)
from repro.schedule import Parallel, Schedule, Vectorize

N = 64


def loops(vec=0, nt=None):
    """The loop schedule for a vector width and worker count (None =
    no Parallel directive, 0 = auto)."""
    directives = [Vectorize("x", vec)] if vec else []
    if nt is not None:
        directives.append(Parallel("y", nt))
    return Schedule(directives)


@pytest.fixture(scope="module")
def img():
    return np.random.RandomState(7).rand(N, N).astype(np.float32)


def blur_pipeline():
    inp = image("inp")
    bx = stage(inp(-1, 0) + inp(0, 0) + inp(1, 0), "bx")
    by = stage(bx(0, -1) + bx(0, 0) + bx(0, 1), "by")
    out = stage(inp * 2.0 - by / 9.0, "sharp")
    return bx, by, out


SCHEDULES = [
    {"bx": MATERIALIZE, "by": MATERIALIZE},
    {"bx": LINEBUFFER, "by": LINEBUFFER},
    {"bx": INLINE, "by": LINEBUFFER},
    {"bx": LINEBUFFER, "by": MATERIALIZE},
]


class TestBitIdentity:     # strips run on the default backend's handle
    @pytest.mark.parametrize("vec", [0, 4])
    @pytest.mark.parametrize("sched", SCHEDULES,
                             ids=lambda s: "-".join(s.values()))
    def test_parallel_equals_serial(self, img, sched, vec):
        bx, by, out = blur_pipeline()
        ref = compile_pipeline(out, N, schedule=sched,
                               tile_schedule=loops(vec)).run(img)
        bx, by, out = blur_pipeline()
        cs = compile_pipeline(out, N, schedule=sched,
                              tile_schedule=loops(vec, 3))
        assert cs.parallel_plan is not None
        got = cs.run(img)
        assert got.tobytes() == ref.tobytes()
        # repeated calls reuse the lazily-allocated buffers correctly
        assert cs.run(img).tobytes() == ref.tobytes()

    def test_multi_output(self, img):
        def build(nt):
            inp = image("inp")
            s1 = stage(inp(-1, 0) + inp(1, 0), "s1")
            s2 = stage(s1(0, -1) * 0.5 + s1(0, 1) * 0.5, "s2")
            return compile_pipeline([s1, s2], N, schedule={s1: LINEBUFFER},
                                    tile_schedule=loops(nt=nt))
        r1, r2 = build(None).run(img)
        p1, p2 = build(2).run(img)
        assert r1.tobytes() == p1.tobytes()
        assert r2.tobytes() == p2.tobytes()

    def test_with_runtime_params(self, img):
        from repro.orion import param

        def build(nt):
            inp = image("inp")
            k = param("k")
            sm = stage(inp(0, -1) + inp(0, 1), "sm", bounded=True)
            return compile_pipeline(sm * k, N, schedule={sm: LINEBUFFER},
                                    tile_schedule=loops(nt=nt))
        ref = build(None).run(img, k=0.3)
        got = build(4).run(img, k=0.3)
        assert got.tobytes() == ref.tobytes()


class TestSerialPathUnchanged:
    def _build(self, nt):
        bx, by, out = blur_pipeline()
        return compile_pipeline(out, N, schedule={"bx": LINEBUFFER,
                                                  "by": LINEBUFFER},
                                tile_schedule=loops(nt=nt))

    def test_env_one_neutralizes_directive(self, monkeypatch):
        plain = self._build(None)
        monkeypatch.setenv("REPRO_TERRA_THREADS", "1")
        neutered = self._build(0)
        assert neutered.parallel_plan is None
        assert neutered.source == plain.source

    def test_no_directive_emits_no_strip_params(self):
        plain = self._build(None)
        assert "gsel" not in plain.source
        assert "ylo" not in plain.source

    def test_env_overrides_explicit_count(self, monkeypatch):
        monkeypatch.setenv("REPRO_TERRA_THREADS", "2")
        cs = self._build(16)
        assert cs.parallel_plan["nthreads"] == 2


class TestDirectiveValidation:
    def test_only_y_axis(self):
        with pytest.raises(TerraError, match="row axis 'y'"):
            compile_pipeline(blur_pipeline()[2], N,
                             tile_schedule=Schedule([Parallel("x")]))

    def test_unsupported_shape_rejected_at_compile_time(self):
        # a linebuffered stage reading a materialized producer fused into
        # the same group cannot be strip-parallelized (warm-up recomputes
        # only linebuffered stages); it must fail loudly, not corrupt.
        # Diamond A(lb) -> M(mat) -> B(lb) -> D, D also reads A: the
        # unions A-{M,D} and B-{D} fuse everything into one group, where
        # B reads the materialized M.
        def build(nt):
            inp = image("inp")
            a = stage(inp(0, -1) + inp(0, 1), "a")
            m = stage(a(0, -1) + a(0, 1), "m")
            b = stage(m(0, -1) + m(0, 1), "b")
            d = stage(a(0, 0) + b(0, 0), "d")
            return compile_pipeline(
                d, N, schedule={a: LINEBUFFER, m: MATERIALIZE,
                                b: LINEBUFFER}, tile_schedule=loops(nt=nt))
        with pytest.raises(TerraError, match="strip-parallel"):
            build(2)
        build(None)  # the same schedule compiles fine serially
