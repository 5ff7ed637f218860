"""The full blocked matrix multiply built on the Figure-5 kernel.

Paper §6.1: "ATLAS breaks down a matrix multiply into smaller operations
where the matrices fit into L1 cache.  An optimized kernel for L1-sized
multiplies is used for each operation. ... We found that a simple
two-level blocking scheme worked well."

:func:`make_gemm_from_schedule` stages that outer blocking around two
instances of the L1 kernel (an ``alpha=0`` variant for the first k-panel,
which also initializes C, and an ``alpha=1`` accumulating variant); the
``make_gemm*`` functions are schedule presets.
"""

from __future__ import annotations

from .. import double, includec, int64, pointer, quote_, symbol, terra
from ..core import types as T
from .genkernel import genkernel


def gemm_schedule(NB: int, RM: int, RN: int, V: int, packed: bool = True,
                  nthreads: int | None = None):
    """A tuner configuration in the schedule vocabulary of
    :func:`make_gemm_from_schedule`; an ``nthreads`` (0 = auto) adds the
    row-panel ``Parallel``."""
    from ..schedule import Pack, Parallel, Schedule, Tile, Unroll, Vectorize
    directives = [Tile(("i", "j"), (NB, NB))]
    if V > 1:
        directives.append(Vectorize("j", V))
    if RM > 1:
        directives.append(Unroll("i", RM))
    if RN > 1:
        directives.append(Unroll("jj", RN))
    if packed:
        directives += [Pack("a", "panel"), Pack("b", "panel")]
    if nthreads is not None:
        directives.append(Parallel("i_o", nthreads))
    return Schedule(directives)


def make_gemm(NB: int, RM: int, RN: int, V: int, elem: T.Type = double,
              use_prefetch: bool = True, fma: bool = True,
              async_compile: bool = False):
    """Preset: the blocked GEMM multiplying in place (no packing)."""
    return make_gemm_from_schedule(gemm_schedule(NB, RM, RN, V, packed=False),
                                   elem, use_prefetch, fma, async_compile)


def make_gemm_packed(NB: int, RM: int, RN: int, V: int,
                     elem: T.Type = double, use_prefetch: bool = True,
                     fma: bool = True, async_compile: bool = False):
    """Preset: ATLAS-style panel packing — usually several GFLOPS faster
    than :func:`make_gemm` at large N."""
    return make_gemm_from_schedule(gemm_schedule(NB, RM, RN, V),
                                   elem, use_prefetch, fma, async_compile)


def make_gemm_packed_parallel(NB: int, RM: int, RN: int, V: int,
                              elem: T.Type = double,
                              use_prefetch: bool = True, fma: bool = True,
                              nthreads: int = 0):
    """Preset: the packed GEMM with row panels across worker threads."""
    return make_gemm_from_schedule(
        gemm_schedule(NB, RM, RN, V, nthreads=nthreads),
        elem, use_prefetch, fma)


def make_gemm_from_schedule(schedule, elem: T.Type = double,
                            use_prefetch: bool = True, fma: bool = True,
                            async_compile: bool = False):
    """Stage ``gemm(C, A, B, N)`` — ``C = A*B``, square row-major, any N —
    from a :class:`repro.schedule.Schedule`.

    ==========================  ===========================================
    ``Tile(("i","j"),(NB,NB))`` the square L1 cache block (required)
    ``Vectorize("j", V)``       vector width of the micro-kernel (default 1:
                                the unvectorized kernel of Figure 6)
    ``Unroll("i", RM)``         register-block rows (default 1)
    ``Unroll("jj", RN)``        register-block *column vectors* (default 1;
                                ``jj`` is the vector-column axis inside a
                                j-tile — distinct from the lane axis ``j``)
    ``Pack("a"/"b","panel")``   copy each L1 block into contiguous scratch
                                first, as ATLAS does (both or neither)
    ``Parallel("i_o", NT)``     row-panel thread dispatch (needs the Packs;
                                ``i_o`` is the outer chunk loop the Tile
                                creates — the generic lowering's name for it)
    ==========================  ===========================================

    Anything else — or a directive violating the micro-kernel's
    divisibility constraints — raises :class:`ScheduleError` naming it.
    The blocked interior covers the largest multiple of NB; the k tail
    and the bottom/right edges run as naive loops.  A ``Parallel``
    schedule returns a Python driver exposing its staged pieces as
    ``gemm.panels`` / ``gemm.edges``; per element of C the k-accumulation
    order is the serial packed GEMM's, so results are bit-identical.

    ``fma=True`` builds with fused multiply-add contraction (what a
    hand-tuned BLAS uses on FMA hardware; False gives strict per-operation
    IEEE results).  ``async_compile=True`` submits the build to the
    :mod:`repro.buildd` pool and the first call joins it — the auto-tuner
    overlaps candidate compilation with timing runs this way.
    """
    from ..backend.c.runtime import extra_cflags
    NB, RM, RN, V, packed, par = _decode(schedule)
    std = includec("stdlib.h")
    l1_first = genkernel(NB, RM, RN, V, 0.0, elem, use_prefetch)
    l1_accum = genkernel(NB, RM, RN, V, 1.0, elem, use_prefetch)
    zeroconst = _zero(elem)
    # the drivers' parameters, block indices and scratch: symbols, because
    # the quotes below that use them are spliced in schedule-chosen order
    C, A, B, bufA, bufB = (symbol(pointer(elem), name)
                           for name in ("C", "A", "B", "bufA", "bufB"))
    N, N0, mb, nb, kb, lo, hi = (symbol(int64, name) for name in
                                 ("N", "N0", "mb", "nb", "kb", "lo", "hi"))

    dots = []   # C[i,j] = A[i,:] . B[:,j] (full k) over an edge strip
    for ilo, ihi, jlo, jhi in ((N0, N, 0, N), (0, N0, N0, N)):
        dots.append(quote_("""
          for i = ilo, ihi do
            for j = jlo, jhi do
              var sum = [zeroconst]
              for k = 0, N do sum = sum + A[i * N + k] * B[k * N + j] end
              C[i * N + j] = sum
            end
          end
        """))
    edges = quote_("""
      if N0 == N then return end
      -- k tail for the blocked interior
      for i = 0, N0 do
        for k = N0, N do
          var aik = A[i * N + k]
          for j = 0, N0 do
            C[i * N + j] = C[i * N + j] + aik * B[k * N + j]
          end
        end
      end
      [dots]   -- the bottom edge rows, then the right edge columns above them
    """)
    if not packed:
        blocks = quote_("""
          for [mb] = 0, N0, NB do
            for [nb] = 0, N0, NB do
              l1_first(A + mb*N, B + nb, C + mb*N + nb, N, N, N)
              for [kb] = NB, N0, NB do
                l1_accum(A + mb*N + kb, B + kb*N + nb, C + mb*N + nb, N, N, N)
              end
            end
          end
        """)
    else:
        packs = []   # copy one NB x NB block into contiguous scratch
        for src_matrix, row, col, buf in ((A, mb, kb, bufA), (B, kb, nb, bufB)):
            packs.append(quote_("""
              for i = 0, NB do
                var src = src_matrix + (row + i) * N + col
                var dst = buf + i * NB
                for j = 0, NB do dst[j] = src[j] end
              end
            """))
        pack_a, pack_b = packs
        block = quote_("""
          [pack_a]
          if kb == 0 then
            l1_first(bufA, bufB, C + mb * N + nb, NB, NB, N)
          else
            l1_accum(bufA, bufB, C + mb * N + nb, NB, NB, N)
          end
        """)
        if par is None:   # mb innermost: a packed B block is reused down it
            block = quote_("for [mb] = 0, N0, NB do [block] end")
        # the panels start on a 64-byte line (stdlib.h has no
        # aligned_alloc): wherever malloc put them, a vector row of a
        # packed block would otherwise straddle two cache lines
        blocks = quote_("""
          var rawA = std.malloc(NB * NB * sizeof(elem) + 64)
          var rawB = std.malloc(NB * NB * sizeof(elem) + 64)
          var [bufA] = [&elem](([int64](rawA) + 63) and -64)
          var [bufB] = [&elem](([int64](rawB) + 63) and -64)
          for [nb] = 0, N0, NB do
            for [kb] = 0, N0, NB do
              [pack_b]
              [block]
            end
          end
          std.free(rawA)
          std.free(rawB)
        """)
        if par is not None:   # mb outermost: one writer + scratch per panel;
            # a worker runs the panels of its rows [lo, hi)
            blocks = quote_("for [mb] = lo, hi, NB do [blocks] end")

    bodies = {"gemm": [blocks, edges]} if par is None else \
        {"gemm_panels": [blocks], "gemm_edges": [edges]}
    fns = []
    for name, body in bodies.items():
        rows = "[lo] : int64, [hi] : int64, " if name == "gemm_panels" else ""
        fn = terra(f"""
        terra {name}({rows}[C] : &elem, [A] : &elem, [B] : &elem,
                     [N] : int64) : {{}}
          var [N0] = (N / NB) * NB     -- the blocked interior; edges go naive
          [body]
        end
        """)
        build = fn.compile_async if async_compile else fn.compile
        if fma:
            with extra_cflags("-ffp-contract=fast"):
                build("c")
        elif async_compile:
            build("c")
        fns.append(fn)
    if par is None:
        return fns[0]
    from ..parallel import default_nthreads, parallel_for

    def gemm(C, A, B, N):
        N0 = (N // NB) * NB
        parallel_for(gemm.panels, 0, N0, C, A, B, N,
                     nthreads=default_nthreads(par.nthreads), grain=NB)
        if N0 != N:
            gemm.edges(C, A, B, N)

    gemm.panels, gemm.edges = fns
    return gemm


def _decode(schedule):
    """Validate a GEMM schedule → ``(NB, RM, RN, V, packed, Parallel)``;
    one branch per row of :func:`make_gemm_from_schedule`'s table."""
    from ..schedule import (Pack, Parallel, Schedule, ScheduleError, Tile,
                            Unroll, Vectorize)
    if not isinstance(schedule, Schedule):
        raise ScheduleError(
            f"make_gemm_from_schedule needs a Schedule, got {schedule!r}")
    NB = par = None
    V = RM = RN = 1
    packs = set()
    for d in schedule:
        if isinstance(d, Tile) and d.axes == ("i", "j") \
                and d.sizes[0] == d.sizes[1]:
            NB = d.sizes[0]
        elif isinstance(d, Vectorize) and d.axis == "j" and d.width >= 2:
            V = d.width
        elif isinstance(d, Unroll) and d.axis == "i":
            RM = d.factor
        elif isinstance(d, Unroll) and d.axis == "jj":
            RN = d.factor
        elif isinstance(d, Pack) and d.operand in ("a", "b") \
                and d.layout == "panel":
            packs.add(d.operand)
        elif isinstance(d, Parallel) and d.axis == "i_o":
            par = d
        else:
            raise ScheduleError(
                f"{d}: no GEMM staging for this directive — GEMM takes a "
                f"square Tile(('i', 'j'), (NB, NB)), Vectorize('j', V >= 2), "
                f"Unroll('i'/'jj', R), Pack('a'/'b', 'panel') and "
                f"Parallel('i_o', NT)")
    if NB is None:
        raise ScheduleError(
            f"{schedule.key()}: GEMM schedules need a "
            f"Tile(('i', 'j'), (NB, NB))")
    if NB % RM:
        raise ScheduleError(
            f"Unroll('i', {RM}): register rows must divide the "
            f"{NB}-row L1 block")
    if NB % (RN * V):
        raise ScheduleError(
            f"Unroll('jj', {RN}): RN*V = {RN * V} must divide the "
            f"{NB}-column L1 block")
    missing = [f"Pack({op!r}, 'panel')" for op in "ab" if op not in packs]
    if missing and (packs or par is not None):
        raise ScheduleError(
            f"{par or schedule.packs[0]}: GEMM packs panels of both 'a' "
            f"and 'b' or neither, and the row-panel kernel packs per "
            f"worker — add {' and '.join(missing)}")
    return NB, RM, RN, V, bool(packs), par


def blocked_matmul(NB: int, elem: T.Type = double):
    """The plain cache-blocked (but unvectorized, non-register-blocked)
    baseline — the "Blocked" series of paper Figure 6.  Block edges are
    clamped, so any N works (not just multiples of NB)."""
    return terra("""
    terra blocked(C : &elem, A : &elem, B : &elem, N : int64) : {}
      for i = 0, N*N do C[i] = [elem0] end
      for mb = 0, N, NB do
        var mlim = mb + NB
        if mlim > N then mlim = N end
        for kb = 0, N, NB do
          var klim = kb + NB
          if klim > N then klim = N end
          for nb = 0, N, NB do
            var nlim = nb + NB
            if nlim > N then nlim = N end
            for i = mb, mlim do
              for k = kb, klim do
                var aik = A[i*N + k]
                for j = nb, nlim do
                  C[i*N + j] = C[i*N + j] + aik * B[k*N + j]
                end
              end
            end
          end
        end
      end
    end
    """, env=dict(elem=elem, NB=NB, elem0=_zero(elem)))


def naive_matmul(elem: T.Type = double):
    """The naive triple loop — paper §6.1: "a naive DGEMM can run over 65
    times slower than the best-tuned algorithm"."""
    return terra("""
    terra naive(C : &elem, A : &elem, B : &elem, N : int64) : {}
      for i = 0, N do
        for j = 0, N do
          var sum = [elem0]
          for k = 0, N do
            sum = sum + A[i*N + k] * B[k*N + j]
          end
          C[i*N + j] = sum
        end
      end
    end
    """, env=dict(elem=elem, elem0=_zero(elem)))


def _zero(elem: T.Type):
    from .. import constant
    return constant(elem, 0.0)
