"""The matrix-multiply auto-tuner — paper §6.1.

    "In Lua, we wrote an auto-tuner that searches over reasonable values
    for the parameters (NB, V, RA, RB), JIT-compiles the code, runs it on
    a user-provided test case, and chooses the best-performing
    configuration.  Our implementation is around 200 lines of code."

``tune`` enumerates candidate (NB, RM, RN, V) configurations subject to
register-pressure and divisibility constraints, JIT-compiles each staged
kernel, times it on a test multiply, and returns the best configuration —
all in one process, which is the paper's headline engineering win over
ATLAS's Makefile/preprocessor/cross-compilation pipeline.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .. import double
from .. import trace
from ..core import types as T
from .matmul import gemm_schedule, make_gemm_from_schedule


@dataclass
class Candidate:
    NB: int
    RM: int
    RN: int
    V: int
    use_prefetch: bool = True

    def __str__(self) -> str:
        pf = "+pf" if self.use_prefetch else "-pf"
        return f"NB={self.NB} RM={self.RM} RN={self.RN} V={self.V} {pf}"

    def schedule(self, packed: bool = True):
        """This candidate as a :class:`repro.schedule.Schedule` — the
        tuner's search space in the first-class schedule vocabulary
        (:func:`repro.autotune.matmul.make_gemm_from_schedule` has the
        directive mapping)."""
        return gemm_schedule(self.NB, self.RM, self.RN, self.V, packed)


@dataclass
class TuneResult:
    best: Candidate
    gflops: float
    gemm: object
    trials: list[tuple[Candidate, float]] = field(default_factory=list)


def candidates(elem: T.Type = double,
               NBs: Sequence[int] = (32, 48, 64, 96),
               RMs: Sequence[int] = (1, 2, 4, 6),
               RNs: Sequence[int] = (1, 2, 3),
               Vs: Optional[Sequence[int]] = None,
               prefetch_options: Sequence[bool] = (True,),
               max_vector_registers: int = 16) -> list[Candidate]:
    """Enumerate reasonable configurations (paper: "searches over
    reasonable values for the parameters")."""
    if Vs is None:
        Vs = (2, 4) if elem is double else (4, 8)
    out: list[Candidate] = []
    for NB in NBs:
        for V in Vs:
            for RM in RMs:
                if NB % RM:
                    continue
                for RN in RNs:
                    if NB % (RN * V):
                        continue
                    # the c-block plus a-broadcast and b-row values must
                    # roughly fit the machine's vector registers
                    if RM * RN + RM + RN > max_vector_registers:
                        continue
                    for pf in prefetch_options:
                        out.append(Candidate(NB, RM, RN, V, pf))
    return out


def time_gemm(gemm, N: int, elem: T.Type = double, repeats: int = 3,
              rng: Optional[np.random.RandomState] = None) -> float:
    """Median GFLOPS of ``gemm`` on an NxN multiply."""
    dtype = np.float64 if elem is double else np.float32
    rng = rng or np.random.RandomState(7)
    A = np.ascontiguousarray(rng.rand(N, N).astype(dtype))
    B = np.ascontiguousarray(rng.rand(N, N).astype(dtype))
    C = np.zeros((N, N), dtype=dtype)
    gemm(C, A, B, N)  # warm-up & JIT
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        gemm(C, A, B, N)
        times.append(time.perf_counter() - t0)
    dt = sorted(times)[len(times) // 2]
    return 2.0 * N ** 3 / dt / 1e9


def tune(test_size: int = 512, elem: T.Type = double,
         candidate_list: Optional[Sequence[Candidate]] = None,
         repeats: int = 3, verify: bool = True,
         verbose: bool = False, packed: bool = True,
         parallel_compile: bool = True) -> TuneResult:
    """Search the configuration space and return the best staged GEMM.

    ``packed=True`` (default) uses the ATLAS-style panel-packing driver
    around the staged kernel; ``packed=False`` multiplies in place.

    With ``parallel_compile=True`` (default) every candidate kernel is
    submitted to the :mod:`repro.buildd` compile pool *up front*, so gcc
    runs for later candidates overlap the timing runs of earlier ones
    (and, with ``REPRO_BUILDD_JOBS>1``, each other).  A warm artifact
    cache skips the compiles entirely — check
    ``repro.buildd.stats()["hit_rate"]`` after a sweep."""
    cands = list(candidate_list if candidate_list is not None
                 else candidates(elem))
    dtype = np.float64 if elem is double else np.float32
    rng = np.random.RandomState(3)
    trials: list[tuple[Candidate, float]] = []
    best: Optional[Candidate] = None
    best_gflops = -1.0
    best_gemm = None
    # every candidate is feasible at any test size: the GEMM driver
    # handles N % NB != 0 through its edge loops (an earlier version
    # silently dropped every candidate whose NB did not divide the test
    # size, which for e.g. test_size=500 was *all* of them)
    # stage every candidate first; with parallel_compile each staged kernel
    # is already building on the pool while the next one is staged (the
    # paper's "JIT-compiles the code" step, made concurrent)
    staged: list[tuple[Candidate, object]] = []
    with trace.span("tune", cat="tune", candidates=len(cands),
                    test_size=test_size) as tune_sp:
        for cand in cands:
            with trace.span("tune.stage", cat="tune", candidate=str(cand)):
                gemm = make_gemm_from_schedule(
                    cand.schedule(packed), elem, cand.use_prefetch,
                    async_compile=parallel_compile)
            staged.append((cand, gemm))
        for cand, gemm in staged:
            with trace.span("tune.measure", cat="tune",
                            candidate=str(cand)) as sp:
                if verify:
                    # deliberately not a multiple of NB, so verification
                    # exercises the edge/k-tail paths too
                    n = cand.NB * 2 + 5
                    A = rng.rand(n, n).astype(dtype)
                    B = rng.rand(n, n).astype(dtype)
                    C = np.zeros((n, n), dtype=dtype)
                    gemm(C, A, B, n)
                    tol = 1e-8 if elem is double else 1e-2
                    if not np.allclose(C, A @ B, atol=tol * n):
                        raise AssertionError(
                            f"misgenerated kernel for {cand}")
                gflops = time_gemm(gemm, test_size, elem, repeats)
                sp.set(gflops=round(gflops, 3))
            trials.append((cand, gflops))
            if verbose:
                print(f"  {cand}: {gflops:.2f} GFLOPS")
            if gflops > best_gflops:
                best, best_gflops, best_gemm = cand, gflops, gemm
        if best is not None:
            tune_sp.set(best=str(best), gflops=round(best_gflops, 3))
    if best is None:
        raise ValueError("empty candidate list")
    return TuneResult(best, best_gflops, best_gemm, trials)
