"""The six ledger workloads.

Every workload is closed loop with one load-generating thread, runs its
op and its *floor* op (the same work with this repo's layers taken out:
raw gcc, raw ``dlopen``, raw ctypes, BLAS, hand-written C, a protocol
ping) in alternating blocks of one run, and checks every result against
a reference that is not the compiler under test.

==============  ==========================================  ==============================
workload        op                                          floor
==============  ==========================================  ==============================
stage_cold      define + first verified result of a bundle  gcc on the same emitted C
stage_cached    the same (no javalike), artifact cache hot  dlopen + dlsym of the ``.so``
call_warm       one Python->Terra call (scalar + pointer)   raw ctypes call, same symbols
gemm            packed DGEMM N=512                          ``numpy.dot`` (1 thread)
stencil         Orion fluid step N=512                      hand-written C fluid step
serve           ``ServeClient.call`` round trip             ``ServeClient.ping``
==============  ==========================================  ==============================

``Workload.setup`` is everything before the first timed op and is what
``setup_s`` times; the blocks append to a :class:`Recorder`.
"""

from __future__ import annotations

import _ctypes
import ctypes
import itertools
import json
import os
import shutil
import signal
import subprocess
import sys
import time

import numpy as np

import repro
import repro.buildd as buildd
from repro import terra
from repro.buildd import toolchain

import bundle as B
from common import median, percentile
from spans import NULL

perf = time.perf_counter


class Recorder:
    """Per-op wall times (seconds) of the op and the floor op, the wall
    time of the op blocks, and the failure account of both."""

    def __init__(self, op_timeout_s: float) -> None:
        self.op: list[float] = []
        self.floor: list[float] = []
        self.op_wall = 0.0
        self.ops = 0
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.op_timeout_s = op_timeout_s

    def add(self, samples: list, seconds: float, ok: bool,
            weight: int = 1) -> None:
        """One sample standing for ``weight`` operations of ``seconds``
        each; an operation over the watchdog limit counts as failed."""
        samples.append(seconds)
        self.attempted += weight
        if samples is self.op:
            self.ops += weight
        if not ok or seconds > self.op_timeout_s:
            self.failed += weight
            if len(self.errors) < 5:
                self.errors.append(
                    "wrong result" if not ok else
                    f"operation took {seconds:.3f}s "
                    f"(limit {self.op_timeout_s}s)")

    def fail(self, count: int, why: str) -> None:
        """Mark ``count`` already-recorded operations as failed."""
        self.failed += count
        if len(self.errors) < 5:
            self.errors.append(why[:300])

    def raised(self, exc: BaseException) -> None:
        self.attempted += 1
        self.fail(1, f"{type(exc).__name__}: {exc}")


class Workload:
    name = ""
    #: watchdog: an op slower than this counts as failed
    op_timeout_s = 30.0
    #: block pairs per measured second on the box this was sized on, for
    #: the workloads that run a fixed count (``stage_*``: every definition
    #: leaves something behind in the process, so ``peak_rss_mb`` repeats
    #: only at a fixed op count); None runs until the clock says stop
    blocks_per_second = None
    #: a fixed count is rounded to a multiple of this, so that every run
    #: covers each variant of the workload's pool equally often
    pool_blocks = 1

    def __init__(self, seed: int, seconds: float, tmp: str) -> None:
        self.seed = seed
        self.seconds = seconds
        self.tmp = tmp
        self.blocks = 0         # block pairs begun, by measure()
        self.limit = 0
        self.deadline = 0.0

    def setup(self) -> None:
        """Everything before the first timed op (what ``setup_s`` times)."""
        raise NotImplementedError

    def begin(self, fraction: float = 1.0) -> None:
        """Start a timed pass of ``fraction`` of the run's seconds."""
        self.deadline = perf() + self.seconds * fraction
        if self.blocks_per_second is not None:
            pool = self.pool_blocks
            count = self.blocks_per_second * self.seconds * fraction
            self.limit = self.blocks + max(pool, round(count / pool) * pool)

    def finished(self) -> bool:
        if self.blocks_per_second is None:
            return perf() >= self.deadline
        return self.blocks >= self.limit

    def op_block(self, rec: Recorder, tracer=NULL) -> None:
        """A short closed-loop burst of ops; adds its wall time to
        ``rec.op_wall``."""
        raise NotImplementedError

    def floor_block(self, rec: Recorder) -> None:
        raise NotImplementedError

    def finish(self) -> None:
        """After the last timed block, before :meth:`teardown`."""

    def teardown(self) -> None:
        """Stop whatever :meth:`setup` started; always runs."""

    def peak_rss_mb(self) -> float:
        import resource
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def layer_metrics(self, rec: Recorder) -> dict:
        """The per-layer numbers this workload's own pass yields (the
        probe runs a short pass of it when no traced pass did)."""
        return {}


def buildd_counts() -> tuple:
    stats = buildd.get_service().stats
    return stats.submitted, stats.cache_hits, stats.compiles


def measure(wl: Workload, recorders: list, tracers: list) -> list:
    """Alternate op and floor blocks until the pass is over; returns
    what buildd saw during the first recorder's op blocks (submitted,
    hits, compiles).  With two recorders (the traced pass) even rounds
    are untraced and odd rounds traced, so both see the same machine
    state; the stepped lifecycle of a traced op resubmits every unit, so
    buildd is only read around untraced ops."""
    seen = [0, 0, 0]
    while not wl.finished():
        rec, tracer = recorders[wl.blocks % len(recorders)], \
            tracers[wl.blocks % len(tracers)]
        wl.blocks += 1
        counts = buildd_counts()
        try:
            wl.op_block(rec, tracer)
            if rec is recorders[0]:
                seen = [s + now - then for s, now, then
                        in zip(seen, buildd_counts(), counts)]
            wl.floor_block(rec)
        except Exception as exc:   # an op that raises is a failed op
            rec.raised(exc)
    return seen


# -- stage_cold / stage_cached ----------------------------------------------------

def direct_gcc(source: str, stem: str) -> tuple[float, bool]:
    """The ``stage_cold`` floor: the same compiler with the same flags on
    the same C, as a plain subprocess.  Returns the subprocess's wall
    time and whether it produced a shared object."""
    cc = toolchain.find_cc()
    c_path, so_path = stem + ".c", stem + ".so"
    with open(c_path, "w") as fh:
        fh.write(source)
    t0 = perf()
    proc = subprocess.run([cc, *buildd.DEFAULT_CFLAGS, c_path, "-o", so_path,
                           "-lm"], capture_output=True)
    dt = perf() - t0
    ok = proc.returncode == 0 and os.path.getsize(so_path) > 0
    os.unlink(c_path)
    if os.path.exists(so_path):
        os.unlink(so_path)
    return dt, ok


class StageCold(Workload):
    """The paper's tuner loop (§6.1) and the serve cold path: every C
    text is new and the artifact cache starts empty, so gcc and buildd's
    write path do most of the work."""

    name = "stage_cold"
    BLOCK = 1           # ops per block
    blocks_per_second = 2.75
    pool_blocks = len(B.GEMM_POOL)

    def members(self, bundle: B.Bundle) -> list:
        return bundle.members

    def setup(self) -> None:
        toolchain.cc_identity()
        repro.default_backend()
        self.inputs = B.Inputs(self.seed)
        self.bundles = B.draw_bundles(self.seed, self.inputs)
        self.last: list = []     # per op of the last block: [(member, fn)]

    def op_block(self, rec: Recorder, tracer=NULL) -> None:
        self.last = []
        start = perf()
        for _ in range(self.BLOCK):
            staged, ok = [], True
            members = self.members(next(self.bundles))
            tracer.next_op()
            t0 = perf()
            with tracer.span(f"{self.name}.op", "op"):
                for m in members:
                    fn, good, _ = B.run_member(m, tracer)
                    ok &= good
                    staged.append((m, fn))
            rec.add(rec.op, perf() - t0, ok)
            self.last.append(staged)
        rec.op_wall += perf() - start

    def floor_block(self, rec: Recorder) -> None:
        for staged in self.last:
            total, ok = 0.0, True
            for m, fn in staged:
                dt, good = direct_gcc(fn.get_c_source(),
                                      os.path.join(self.tmp, "floor"))
                total += dt
                ok &= good
            rec.add(rec.floor, total, ok)


class StageCached(StageCold):
    """The bypass twin of ``stage_cold``: the same bundles — minus the
    javalike member, which can never be a cross-process hit (see
    ``bundle.cacheable``) — with the artifact cache hot, so gcc never
    runs and the front half (core, frontend, passes, C emission) plus
    buildd's read path and the bind are the op.  A previous child
    process staged the bundles; every in-process object here is new."""

    name = "stage_cached"
    BLOCK = 4
    blocks_per_second = 11.0
    #: bundles a previous child stages; the timed section cycles through
    #: them.  Nothing in-process survives a re-definition except the
    #: dlopen handle of an already-loaded path, which is ~0.3 % of an op.
    POOL = 16
    pool_blocks = POOL // BLOCK

    def members(self, bundle: B.Bundle) -> list:
        return [m for m in bundle.members if B.cacheable(m)]

    def setup(self) -> None:
        super().setup()
        self.bundles = itertools.cycle(
            list(itertools.islice(self.bundles, self.POOL)))
        self.copies = 0
        run_prestage(self.seed, self.POOL, full=False)

    def floor_block(self, rec: Recorder) -> None:
        """``ctypes.CDLL`` on a fresh copy of each cached ``.so`` plus the
        symbol lookup (a fresh copy, because ``dlopen`` of a path that is
        already loaded returns the existing handle).  The copy is closed
        again: ``dlopen`` searches the list of loaded objects, so a floor
        that left a thousand behind would slow down as the run went on."""
        for staged in self.last:
            total, ok = 0.0, True
            for m, fn in staged:
                source = fn.get_c_source()
                # a new name every time: glibc also matches loaded objects
                # by path, so a reused path would return the previous one
                self.copies += 1
                copy = os.path.join(self.tmp, f"floor-{self.copies}.so")
                shutil.copyfile(buildd.compile(source), copy)
                symbol = B.c_symbol(source, m.entry)
                t0 = perf()
                lib = ctypes.CDLL(copy)
                cfn = getattr(lib, symbol)
                total += perf() - t0
                ok &= bool(cfn)
                del cfn
                _ctypes.dlclose(lib._handle)
                os.unlink(copy)
            rec.add(rec.floor, total, ok)


def run_prestage(seed: int, count: int, full: bool) -> None:
    """Stage the first ``count`` bundles of ``seed`` in a child process
    that has ended before this returns, so the artifact cache is hot and
    nothing in this process is.  ``full`` keeps the javalike members."""
    proc = subprocess.run(
        [sys.executable,
         os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "worker.py"),
         "--mode", "prestage", "--seed", str(seed), "--count", str(count),
         *(["--full"] if full else [])],
        capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"prestage child failed:\n{proc.stderr}")
    if not json.loads(proc.stdout.strip().splitlines()[-1])["ok"]:
        raise RuntimeError("prestage child computed a wrong result")


def prestage(seed: int, count: int, full: bool) -> dict:
    """Body of the pre-staging child.  Units compile concurrently on the
    buildd pool; each is then called and checked."""
    inputs = B.Inputs(seed)
    pending = []
    for bundle in itertools.islice(B.draw_bundles(seed, inputs), count):
        for m in bundle.members:
            if full or B.cacheable(m):
                fn = m.make()
                fn.compile_async()
                pending.append((m, fn))
    ok = True
    for m, fn in pending:
        args = m.args()
        ok &= m.check(fn(*args), args)
    return {"ok": ok}


# -- call_warm -------------------------------------------------------------------

class CallWarm(Workload):
    """One Python->Terra call on compiled kernels.  Kernel work is about
    zero, so exec (dispatcher, policy), ffi (argument conversion) and
    backend_c's invoke are the whole op; scalar and pointer calls are
    mixed so a gain for one that costs the other shows."""

    name = "call_warm"
    #: scalar calls, then as many pointer calls, per sample: short enough
    #: (about 2 ms) that many samples fall wholly inside quiet spells
    BATCH = 100
    BLOCK = 20            # batches per block
    op_timeout_s = 0.01   # per call

    def setup(self) -> None:
        rng = np.random.RandomState(self.seed % (2 ** 32))
        self.k = int(rng.randint(1, 1000))
        self.a = 0.5
        self.x = rng.randint(0, 64, B.AXPY_N).astype(np.float64)
        self.y0 = rng.randint(0, 64, B.AXPY_N).astype(np.float64)
        self.y = self.y0.copy()
        self.want_sum = sum(i + self.k for i in range(self.BATCH))
        self.want_y = self.y0 + self.BATCH * self.a * self.x
        self.add = terra(B.ADD_SRC)
        self.axpy = terra(B.axpy_src(1.0))
        for fn in (self.add, self.axpy):
            fn.compile()
        # the floor: the same two symbols through bare ctypes, argtypes
        # preset and the pointers converted once
        self.cadd = _raw_symbol(self.add, "add", ctypes.c_int,
                                [ctypes.c_int, ctypes.c_int])
        self.caxpy = _raw_symbol(self.axpy, "axpy", None,
                                 [ctypes.c_int, ctypes.c_double,
                                  ctypes.c_void_p, ctypes.c_void_p])
        self.halves: list[tuple[float, float]] = []   # (scalar, pointer) s
        rec = Recorder(self.op_timeout_s)
        self.op_block(rec)
        self.floor_block(rec)
        if rec.failed:
            raise RuntimeError(f"call_warm warm-up failed: {rec.errors}")
        self.halves.clear()

    def _batch(self, add, axpy, x, y) -> tuple[float, float, bool]:
        n, k, a = self.BATCH, self.k, self.a
        self.y[:] = self.y0
        total = 0
        t0 = perf()
        for i in range(n):
            total += add(i, k)
        t1 = perf()
        for _ in range(n):
            axpy(B.AXPY_N, a, x, y)
        t2 = perf()
        ok = total == self.want_sum and bool(
            np.array_equal(self.y, self.want_y))
        return t1 - t0, t2 - t1, ok

    def op_block(self, rec: Recorder, tracer=NULL) -> None:
        with tracer.span("call_warm.block", "exec"):
            start = perf()
            for _ in range(self.BLOCK):
                scalar, pointer, ok = self._batch(self.add, self.axpy,
                                                  self.x, self.y)
                self.halves.append((scalar / self.BATCH,
                                    pointer / self.BATCH))
                rec.add(rec.op, (scalar + pointer) / (2 * self.BATCH), ok,
                        2 * self.BATCH)
            rec.op_wall += perf() - start

    def floor_block(self, rec: Recorder) -> None:
        x, y = self.x.ctypes.data, self.y.ctypes.data
        for _ in range(self.BLOCK):
            scalar, pointer, ok = self._batch(self.cadd, self.caxpy, x, y)
            rec.add(rec.floor, (scalar + pointer) / (2 * self.BATCH), ok,
                    2 * self.BATCH)


def _raw_symbol(fn, entry: str, restype, argtypes):
    source = fn.get_c_source()
    lib = ctypes.CDLL(buildd.compile(source))
    cfn = getattr(lib, B.c_symbol(source, entry))
    cfn.restype, cfn.argtypes = restype, argtypes
    return cfn


# -- gemm ------------------------------------------------------------------------

HUGE_PAGE = 1 << 21


def huge_page_matrices(count: int, n: int) -> list:
    """``count`` n x n float64 matrices, each starting on its own 2 MB
    boundary of one buffer large enough that numpy asks the kernel for
    transparent huge pages.  Rows of a 512-wide matrix are exactly 4 KB
    apart, so which physical 4 KB pages malloc happens to return decides
    how C's rows collide in the L2 — and the packed kernel then runs in
    one of two modes 10 % apart, fixed for the life of the arrays.  On
    huge pages the physical layout, and so the mode, is the same in
    every process.  (The views keep the buffer alive.)"""
    per = -(-n * n * 8 // HUGE_PAGE) * HUGE_PAGE
    buf = np.empty(per * count + HUGE_PAGE, dtype=np.uint8)
    off = -buf.ctypes.data % HUGE_PAGE
    return [buf[off + i * per:off + i * per + n * n * 8]
            .view(np.float64).reshape(n, n) for i in range(count)]


class Gemm(Workload):
    """Paper Fig. 6.  Compute-bound, and the call path is under 0.2 % of
    an op, so only the quality of the generated code (autotune, schedule,
    passes, emission, flags) can move it."""

    name = "gemm"
    N = 512
    CONFIG = (128, 4, 2, 4)     # NB, RM, RN, V
    BLOCK = 5
    CHECK_EVERY = 100           # ops between allclose checks

    def setup(self) -> None:
        from repro.autotune.matmul import make_gemm_packed
        n = self.N
        rng = np.random.RandomState(self.seed % (2 ** 32))
        self.a, self.b, self.c, self.c_ref = huge_page_matrices(4, n)
        self.a[:] = rng.rand(n, n)
        self.b[:] = rng.rand(n, n)
        self.c[:] = 0.0
        t0 = perf()
        self.gemm = make_gemm_packed(*self.CONFIG)
        self.gemm.compile()
        self.build_s = perf() - t0
        self.gemm(self.c, self.a, self.b, n)
        np.dot(self.a, self.b, out=self.c_ref)
        if not np.allclose(self.c, self.c_ref):
            raise RuntimeError("gemm: first result differs from numpy.dot")
        self.unchecked = 0

    def op_block(self, rec: Recorder, tracer=NULL) -> None:
        gemm, c, a, b, n = self.gemm, self.c, self.a, self.b, self.N
        self.unchecked += self.BLOCK
        check = self.unchecked >= self.CHECK_EVERY
        if check:
            c[:] = 0.0
        times = []
        with tracer.span("gemm.block", "kernel"):
            start = perf()
            for _ in range(self.BLOCK):
                t0 = perf()
                gemm(c, a, b, n)
                times.append(perf() - t0)
            rec.op_wall += perf() - start
        ok = True
        if check:
            self.unchecked = 0
            ok = bool(np.allclose(c, self.c_ref))
        for dt in times:
            rec.add(rec.op, dt, ok)

    def floor_block(self, rec: Recorder) -> None:
        a, b, out = self.a, self.b, self.c_ref
        for _ in range(self.BLOCK):
            t0 = perf()
            np.dot(a, b, out=out)
            rec.add(rec.floor, perf() - t0, True)

    def layer_metrics(self, rec: Recorder) -> dict:
        n = self.N
        flops = 2 * n ** 3
        return {
            "kernel.gemm_gflops": flops / median(rec.op) / 1e9,
            "kernel.blas_gflops": flops / median(rec.floor) / 1e9,
            "kernel.gemm_flops": flops,
            # A and B read, C written, once each: the compulsory traffic
            "kernel.gemm_bytes_computed": 3 * n * n * 8,
            "kernel.gemm_build_ms": self.build_s * 1e3,
        }


# -- stencil ---------------------------------------------------------------------

class Stencil(Workload):
    """Paper Fig. 8.  Streams eight float fields per step where ``gemm``
    reuses its operands from cache, so a vectorizer or flag change that
    helps one and hurts the other shows.  N=512, not the paper's 1024:
    at 1024 the 32 MB working set competes with the host's other tenants
    for memory bandwidth and the step time spreads five times wider
    (10 % against 2 % over ten runs here)."""

    name = "stencil"
    N = 512
    BLOCK = 5
    CHECK_EVERY = 4      # block pairs between state comparisons

    def setup(self) -> None:
        from repro.apps.fluid import (FluidParams, initial_conditions,
                                      make_c_fluid, make_orion_fluid)
        params = FluidParams(self.N)
        t0 = perf()
        self.orion = make_orion_fluid(params, vectorize=4, linebuffer=True)
        self.build_s = perf() - t0
        self.cref = make_c_fluid(params)
        state = initial_conditions(self.N, self.seed % (2 ** 32))
        self.orion.set_state(*state)
        self.cref.set_state(*state)
        self.orion.step()
        self.cref.step()
        self.pairs = 0
        if not self.states_agree():
            raise RuntimeError("stencil: first step differs from the C "
                               "reference")

    def states_agree(self) -> bool:
        """Orion and the hand-written C have taken the same number of
        steps from the same state; compare all three fields."""
        return all(np.allclose(o, c, rtol=1e-4, atol=1e-5)
                   for o, c in zip(self.orion.get_state(),
                                   self.cref.get_state()))

    def op_block(self, rec: Recorder, tracer=NULL) -> None:
        with tracer.span("stencil.block", "kernel"):
            start = perf()
            for _ in range(self.BLOCK):
                t0 = perf()
                self.orion.step()
                rec.add(rec.op, perf() - t0, True)
            rec.op_wall += perf() - start

    def floor_block(self, rec: Recorder) -> None:
        for _ in range(self.BLOCK):
            t0 = perf()
            self.cref.step()
            rec.add(rec.floor, perf() - t0, True)
        self.pairs += 1
        if self.pairs % self.CHECK_EVERY == 0 and not self.states_agree():
            rec.fail(self.BLOCK * self.CHECK_EVERY,
                     "stencil state differs from the C reference")

    def layer_metrics(self, rec: Recorder) -> dict:
        cells = self.N * self.N
        nbytes = STENCIL_FIELD_TRANSFERS * cells * 4
        step_s = median(rec.op)
        stream = stream_gbs(8 * cells * 4)
        return {
            "kernel.stencil_mcells_s": cells / step_s / 1e6,
            "kernel.stencil_c_mcells_s": cells / median(rec.floor) / 1e6,
            "kernel.stencil_bytes_computed": nbytes,
            "kernel.stream_gbs": stream,
            "kernel.stencil_bw_fraction": nbytes / step_s / 1e9 / stream,
            "kernel.stencil_build_ms": self.build_s * 1e3,
        }


#: compulsory float-field transfers of one fluid step, if every pipeline
#: call reads each input and writes each output exactly once: diffuse
#: (1 in, 1 out) x3, project (2 in, 2 out) x2, advect (3 in, 1 out) x3
STENCIL_FIELD_TRANSFERS = 3 * 2 + 2 * 4 + 3 * 4


def stream_gbs(nbytes: int, repeats: int = 5) -> float:
    """Same-run copy bandwidth (read + write) of this machine, on arrays
    the size of the stencil's working set."""
    src = np.ones(nbytes // 4, dtype=np.float32)
    dst = np.empty_like(src)
    times = []
    for _ in range(repeats):
        t0 = perf()
        np.copyto(dst, src)
        times.append(perf() - t0)
    return 2 * nbytes / median(times) / 1e9


# -- serve -----------------------------------------------------------------------

class Serve(Workload):
    """The ROADMAP's serve numbers: the only workload where protocol,
    admission and warm-pool code run, against a real server process."""

    name = "serve"
    TENANTS = 4
    BLOCK = 200
    op_timeout_s = 5.0
    #: relative: the worker's cwd is its private tmp directory, and unix
    #: socket paths are limited to about a hundred bytes
    SOCKET = "serve.sock"
    client = server = log = None    # until setup gets that far

    def setup(self) -> None:
        from repro.serve.client import ServeClient, wait_until_ready
        rng = np.random.RandomState(self.seed % (2 ** 32))
        consts = rng.choice(np.arange(1, 100000), self.TENANTS,
                            replace=False)
        self.tenants = [
            (f"tenant-{i}", int(k),
             f"terra bump(x : int) : int return x + {int(k)} end")
            for i, k in enumerate(consts)]
        self.xs = [int(v) for v in rng.randint(0, 1 << 20, 4096)]
        self.sent = self.pings = 0
        self.server_stats: dict = {}
        self.server_rss_mb = 0.0
        self.cpu_s = 0.0
        self.log = open(os.path.join(self.tmp, "serve.log"), "w")
        # client and server share one CPU.  Left to the scheduler, a
        # ping-pong between two processes on a 2-core VM is bimodal —
        # 0.16 ms when they share a core, 0.40 ms when every wake-up
        # crosses cores — and which mode a run gets is chance.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        t0 = perf()
        self.server = subprocess.Popen(
            [sys.executable, "-m", "repro.serve", "--socket", self.SOCKET,
             "--workers", "2"], stdout=self.log, stderr=self.log)
        wait_until_ready(socket_path=self.SOCKET, timeout=60.0)
        self.start_s = perf() - t0
        self.client = ServeClient(socket_path=self.SOCKET).connect()
        rec = Recorder(60.0)
        for _ in range(2 * self.TENANTS):      # compile, then hit the pool
            self._call(rec)
        if rec.failed:
            raise RuntimeError(f"serve warm-up failed: {rec.errors}")
        self.cpu0 = _proc_cpu_s(self.server.pid)
        self.sent0 = self.sent

    def _call(self, rec: Recorder) -> None:
        i = self.sent
        self.sent += 1
        tenant, k, source = self.tenants[i % self.TENANTS]
        x = self.xs[i % len(self.xs)]
        t0 = perf()
        got = self.client.call(source, "bump", [x], tenant=tenant)
        rec.add(rec.op, perf() - t0, got == x + k)

    def op_block(self, rec: Recorder, tracer=NULL) -> None:
        with tracer.span("serve.block", "serve"):
            start = perf()
            for _ in range(self.BLOCK):
                self._call(rec)
            rec.op_wall += perf() - start

    def floor_block(self, rec: Recorder) -> None:
        ping = self.client.ping
        for _ in range(self.BLOCK):
            t0 = perf()
            ok = ping()
            rec.add(rec.floor, perf() - t0, ok)
        self.pings += self.BLOCK

    def finish(self) -> None:
        self.cpu_s = _proc_cpu_s(self.server.pid) - self.cpu0
        self.server_stats = self.client.stats()
        self.server_rss_mb = _proc_peak_rss_mb(self.server.pid)

    def teardown(self) -> None:
        if self.client is not None:
            self.client.close()
        if self.server is not None and self.server.poll() is None:
            self.server.send_signal(signal.SIGINT)
            try:
                self.server.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.server.kill()
                self.server.wait()
        if self.log is not None:
            self.log.close()

    def peak_rss_mb(self) -> float:
        return self.server_rss_mb

    def layer_metrics(self, rec: Recorder) -> dict:
        counters = self.server_stats.get("counters", {})
        hits = counters.get("serve.cache_hit", 0)
        compiles = counters.get("serve.compile", 0)
        rtt = sorted(rec.op)
        requests = self.sent - self.sent0 + self.pings
        return {
            "serve.start_ms": self.start_s * 1e3,
            "serve.rtt_p50_ms": percentile(rtt, 0.50) * 1e3,
            "serve.rtt_p99_ms": percentile(rtt, 0.99) * 1e3,
            "serve.ping_p50_ms": median(rec.floor) * 1e3,
            "serve.pool_hit_ratio": hits / max(1, hits + compiles),
            "serve.rejected": sum(v for k, v in counters.items()
                                  if k.startswith("serve.rejected")),
            "serve.cpu_ms_per_kreq": self.cpu_s * 1e6 / max(1, requests),
        }


def _proc_peak_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def _proc_cpu_s(pid: int) -> float:
    """User + system CPU seconds of ``pid`` (all its threads)."""
    with open(f"/proc/{pid}/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


WORKLOADS = {cls.name: cls for cls in
             (StageCold, StageCached, CallWarm, Gemm, Stencil, Serve)}
