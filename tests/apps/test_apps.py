"""Application-level correctness tests (the benchmark subjects)."""

import os
import re
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from repro.apps.areafilter import CAreaFilter, build_area_filter, \
    reference_numpy as area_ref
from repro.apps.dispatch import (build_c_dispatch, build_fatptr_dispatch,
                                 build_terra_dispatch)
from repro.apps.fluid import (FluidParams, _advect_terra,
                              initial_conditions, make_c_fluid,
                              make_orion_fluid)
from repro.apps.mesh import (build_mesh_kernels, normals_reference,
                             random_mesh)
from repro.apps.pointwise import build_pipeline, reference_numpy as pw_ref


class TestFluid:
    N = 48

    def test_orion_matches_c_all_schedules(self, cbackend, monkeypatch):
        monkeypatch.delenv("REPRO_TERRA_THREADS", raising=False)
        params = FluidParams(self.N)
        u, v, d = initial_conditions(self.N)
        ref = make_c_fluid(params)
        ref.set_state(u, v, d)
        for _ in range(2):
            ref.step()
        want = [f.tobytes() for f in ref.get_state()]
        for vec, lb in [(0, False), (4, False), (0, True), (4, True)]:
            sim = make_orion_fluid(params, vectorize=vec, linebuffer=lb)
            sim.set_state(u, v, d)
            for _ in range(2):
                sim.step()
            # the same scalar operations per element, whatever the
            # schedule: bit-identical to the hand-written C
            got = sim.get_state()
            assert [f.tobytes() for f in got] == want, (vec, lb)
            # chunking may never change results: the parallel twin of
            # every schedule (advection through its kernels' chunked
            # twins) is BIT-identical to its serial version
            par = make_orion_fluid(params, vectorize=vec, linebuffer=lb,
                                   parallel=3)
            assert par.advect_uv.name == par.advect_d.name == "advect_chunk"
            par.set_state(u, v, d)
            for _ in range(2):
                par.step()
            for p, o in zip(par.get_state(), got):
                assert p.tobytes() == o.tobytes(), (vec, lb)

    def test_building_the_app_moves_no_ineligible_memo_counter(
            self, c_default):
        from repro.trace.metrics import registry
        before = registry().counters("spec.memo.ineligible.")
        make_orion_fluid(FluidParams(self.N), vectorize=4,
                         linebuffer=True).step()
        assert registry().counters("spec.memo.ineligible.") == before

    def test_a_warm_second_process_compiles_nothing(self, cbackend,
                                                    tmp_path):
        child = textwrap.dedent("""
            from repro import buildd
            from repro.apps.fluid import FluidParams, make_orion_fluid
            make_orion_fluid(FluidParams(64), vectorize=4,
                             linebuffer=True).step()
            print(buildd.stats()["compiles"])
        """)
        env = {**os.environ, "REPRO_TERRA_CACHE": str(tmp_path),
               "REPRO_TERRA_BACKEND": "c",
               "PYTHONPATH": os.pathsep.join(sys.path)}
        cold, warm = (int(subprocess.run(
            [sys.executable, "-c", child], env=env, capture_output=True,
            text=True, check=True).stdout) for _ in range(2))
        assert cold > 0
        assert warm == 0

    def test_advect_is_staged_on_its_grid(self):
        # N, W and P are constants in the emitted C, as the C reference's
        # #defines are; only the buffers and dt are parameters
        sim = make_orion_fluid(FluidParams(self.N))
        for fn, names in (
                (sim.advect_uv, ["dst0", "dst1", "src0", "src1", "u", "v",
                                 "dt"]),
                (sim.advect_d, ["dst0", "src0", "u", "v", "dt"])):
            src = fn.get_c_source()
            proto = re.search(r"void tfn\d+_advect\(([^)]*)\);", src).group(1)
            params = [p.rsplit(" ", 1) for p in proto.split(", ")]
            assert [ty for ty, _ in params] == \
                ["float *"] * (len(names) - 1) + ["float"]
            assert [name.split("_", 1)[1] for _, name in params] == names
            assert f"((int32_t){sim.W})" in src

    @staticmethod
    def _advect_state(N, W, cold):
        """Velocities and two fields on the padded (N, W) grid; with
        ``cold`` the velocities also hold NaN, ±inf and |value| > N, so
        every clamp and the defined cast's cold path run."""
        rng = np.random.RandomState(11)
        u, v, a, b = ((rng.randn(N, W) * 0.05).astype(np.float32)
                      for _ in range(4))
        if cold:
            bad = np.float32([np.nan, np.inf, -np.inf, 3 * N, -3 * N])
            bad = np.repeat(bad, 16)
            for vel in (u, v):
                flat = vel.reshape(-1)
                flat[rng.choice(flat.size, bad.size, replace=False)] = bad
        return u, v, a, b

    @pytest.mark.parametrize("cold", [False, True], ids=["smooth", "cold"])
    @pytest.mark.parametrize("V", [1, 4, 8])
    def test_fused_advect_equals_two_scalar_advects(self, backend, V, cold):
        # neither 4 nor 8 divides N, so the scalar tail runs (the
        # interpreter, ~1 s per call at N = 50, takes a smaller grid)
        N, P = (50 if backend.name == "c" else 10), 1
        W = P + N + P + V
        fused = _advect_terra(N, W, P, fields=2, V=V).compile(backend)
        single = _advect_terra(N, W, P).compile(backend)
        u, v, a, b = self._advect_state(N, W, cold)
        got = [np.zeros_like(u) for _ in range(2)]
        want = [np.zeros_like(u) for _ in range(2)]
        fused(*got, a, b, u, v, 0.1)
        for dst, src in zip(want, (a, b)):
            single(dst, src, u, v, 0.1)
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes()

    def test_density_is_conserved_roughly(self):
        params = FluidParams(self.N, diff=0.0)
        u, v, d = initial_conditions(self.N)
        sim = make_orion_fluid(params)
        sim.set_state(u, v, d)
        before = d.sum()
        for _ in range(3):
            sim.step()
        after = sim.get_state()[2].sum()
        assert after <= before * 1.01  # advection+zero boundary only lose mass

    def test_state_roundtrip(self):
        params = FluidParams(self.N)
        u, v, d = initial_conditions(self.N)
        sim = make_orion_fluid(params)
        sim.set_state(u, v, d)
        ou, ov, od = sim.get_state()
        assert np.array_equal(ou, u) and np.array_equal(od, d)


class TestAreaFilter:
    N = 64

    def test_c_matches_numpy(self, cbackend):
        img = np.random.RandomState(0).rand(self.N, self.N).astype(np.float32)
        assert np.allclose(CAreaFilter(self.N).run(img), area_ref(img),
                           atol=1e-5)

    @pytest.mark.parametrize("vec,lb", [(0, False), (4, False), (8, True)])
    def test_orion_matches_numpy(self, vec, lb):
        img = np.random.RandomState(1).rand(self.N, self.N).astype(np.float32)
        af = build_area_filter(self.N, vectorize=vec, linebuffer=lb)
        assert np.allclose(af.run(img), area_ref(img), atol=1e-5)

    def test_constant_image_fixed_point(self):
        # interior of a constant image stays constant under a box filter
        img = np.full((self.N, self.N), 0.5, dtype=np.float32)
        out = build_area_filter(self.N).run(img)
        assert np.allclose(out[4:-4, 4:-4], 0.5, atol=1e-6)


class TestPointwise:
    N = 32

    @pytest.mark.parametrize("policy", ["materialize", "inline", "linebuffer"])
    def test_matches_numpy(self, policy):
        img = np.random.RandomState(2).rand(self.N, self.N).astype(np.float32)
        pipe = build_pipeline(self.N, policy=policy)
        assert np.allclose(pipe.run(img), pw_ref(img), atol=1e-6)

    def test_range_is_valid(self):
        img = np.random.RandomState(3).rand(self.N, self.N).astype(np.float32) * 3
        out = build_pipeline(self.N, policy="inline").run(img)
        assert out.min() >= 0.0 and out.max() <= 1.0


class TestMesh:
    def test_normals_both_layouts(self):
        nv, nt = 2000, 4000
        pos, tris = random_mesh(nv, nt, seed=9)
        ref = normals_reference(pos, tris)
        for layout in ("AoS", "SoA"):
            k = build_mesh_kernels(layout)
            t = k.alloc(nv)
            k.fill(t, np.ascontiguousarray(pos.reshape(-1)), nv)
            k.calc_normals(t, np.ascontiguousarray(tris.reshape(-1)), nt)
            outp = np.zeros(nv * 3, np.float32)
            outn = np.zeros(nv * 3, np.float32)
            k.readback(t, outp, outn, nv)
            assert np.allclose(outn.reshape(-1, 3), ref, atol=1e-3), layout
            k.release(t)

    def test_translate_both_layouts(self):
        nv = 500
        pos, _ = random_mesh(nv, 1, seed=4)
        for layout in ("AoS", "SoA"):
            k = build_mesh_kernels(layout)
            t = k.alloc(nv)
            k.fill(t, np.ascontiguousarray(pos.reshape(-1)), nv)
            k.translate(t, 1.0, 2.0, 3.0, nv)
            k.translate(t, -1.0, -2.0, -3.0, nv)
            outp = np.zeros(nv * 3, np.float32)
            outn = np.zeros(nv * 3, np.float32)
            k.readback(t, outp, outn, nv)
            assert np.allclose(outp.reshape(-1, 3), pos, atol=1e-5)
            k.release(t)


class TestDispatch:
    def test_terra_and_c_agree(self, cbackend):
        tk = build_terra_dispatch()
        ck = build_c_dispatch()
        obj = tk.make(1.0001, 0.5)
        cobj = ck.c_make(1.0001, 0.5)
        for iters in (0, 1, 100, 12345):
            assert tk.loop_virtual(obj, iters) == \
                pytest.approx(ck.c_loop_virtual(cobj, iters), abs=1e-4)
        tk.free(obj)
        ck.c_release(cobj)

    def test_fatptr_interface_matches_embedded_vtable(self):
        tk = build_terra_dispatch()
        fk = build_fatptr_dispatch()
        obj = tk.make(1.0001, 0.5)
        fobj = fk.make(1.0001, 0.5)
        assert fk.loop_virtual(fobj, 100000) == \
            pytest.approx(tk.loop_virtual(obj, 100000), abs=1e-3)
        tk.free(obj)
        fk.free(fobj)

    def test_virtual_equals_direct_result(self):
        tk = build_terra_dispatch()
        obj = tk.make(1.5, 0.25)
        assert tk.loop_virtual(obj, 1000) == tk.loop_direct(obj, 1000)
        tk.free(obj)
