"""Parallel dispatch through the library surface: blockedloop row
strips, DataTable row maps, and the packed GEMM panel driver."""

import numpy as np
import pytest

from repro import float_, includec, quote_, symbol, terra
from repro.lib.blockedloop import blockedloop
from repro.lib.datatable import DataTable, map_rows, parallel_map_rows
from repro.parallel import parallel_for


class TestParallelBlockedloop:
    def test_bit_identical_to_serial(self):
        N = 48
        out = symbol(None, "out")
        body = lambda i, j: quote_(  # noqa: E731
            "[out][[i] * [N] + [j]] = [float]([i] * 1000 + [j])",
            env=dict(out=out, N=N, i=i, j=j))
        loop = blockedloop(N, [16, 4, 1], body)
        fn = terra("""
        terra f([out] : &float) : {}
          [loop]
        end
        """)
        serial = np.zeros(N * N, dtype=np.float32)
        par = np.zeros(N * N, dtype=np.float32)
        fn(serial)
        # chunk cuts aligned to the outer block edge keep whole row blocks
        # on one worker, so the blocking structure is the serial call's
        parallel_for(fn.chunked, 0, N, par, nthreads=3, grain=16)
        assert serial.tobytes() == par.tobytes()


def _make_table(Table, n):
    std = includec("stdlib.h")
    mk = terra("""
    terra mk(n : int64) : &Tbl
      var t = [&Tbl](std.malloc(sizeof(Tbl)))
      t:init(n)
      for i = 0, n do
        var r = t:row(i)
        r:setx([float](i))
        r:sety(0.0f)
      end
      return t
    end
    """, env={"Tbl": Table, "std": std})
    return mk(n)


class TestDataTableMapRows:
    @pytest.mark.parametrize("layout", ["AoS", "SoA", "AoSoA"])
    def test_parallel_row_map(self, layout):
        Table = DataTable({"x": float_, "y": float_}, layout)
        get = terra("""
        terra get(t : &Tbl, i : int64) : float
          var r = t:row(i)
          return r:y()
        end
        """, env={"Tbl": Table})
        kernel = map_rows(Table, lambda row: quote_(
            "[row]:sety([row]:x() * 2.0f + 1.0f)", env={"row": row}))
        n = 500
        t = _make_table(Table, n)
        parallel_map_rows(kernel, t, n, nthreads=3,
                          grain=8 if layout == "AoSoA" else 1)
        for i in (0, 1, 250, n - 1):
            assert get(t, i) == 2.0 * i + 1.0

    def test_serial_call_also_works(self):
        Table = DataTable({"x": float_, "y": float_}, "SoA")
        kernel = map_rows(Table, lambda row: quote_(
            "[row]:sety([row]:x())", env={"row": row}))
        n = 16
        t = _make_table(Table, n)
        kernel(t, n)  # plain entry, no dispatch


class TestParallelGemm:
    def test_panels_bit_identical_to_serial_packed(self, cbackend):
        from repro.autotune.matmul import (make_gemm_packed,
                                           make_gemm_packed_parallel)
        for n in (64, 70):  # multiple of NB, and with edge tails
            rng = np.random.RandomState(3)
            A = rng.rand(n, n)
            B = rng.rand(n, n)
            Cs = np.zeros((n, n))
            Cp = np.zeros((n, n))
            make_gemm_packed(32, 4, 2, 2)(Cs, A, B, n)
            gemm = make_gemm_packed_parallel(32, 4, 2, 2, nthreads=3)
            gemm(Cp, A, B, n)
            assert Cs.tobytes() == Cp.tobytes()
            assert np.allclose(Cs, A @ B)
