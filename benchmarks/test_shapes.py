"""The shapes of the evaluation, asserted: who wins, by roughly how much.

    pytest benchmarks/test_shapes.py -q        (= make bench-shapes)

Every number comes from a series function of ``report.py`` — the same
one that prints the table in EXPERIMENTS.md — at its scaled-down size.
Bounds are loose on purpose: absolute rates on a shared host move by
tens of percent between runs, the orderings below do not.  Correctness
of every kernel timed here is tier-1's job (``tests/``), and trend
numbers are the ledger's (``benchmarks/ledger``).
"""

import os

import report


# -- the paper's Section 6 ----------------------------------------------------

def test_fig6_tuned_beats_blocked_beats_naive():
    """§6.1, E8: naive is "over 65 times slower" than the tuned kernel
    (we assert >10x), blocking alone lands in between, and a tuned
    kernel that leaves the vector units idle (V=1, Figure 6b's "ATLAS
    (orig.)" series) falls far behind."""
    dgemm, sgemm = (t.column("GFLOPS") for t in report.fig6())
    assert dgemm["Terra (tuned)"] > 10 * dgemm["naive"], dgemm
    assert dgemm["naive"] < dgemm["blocked"] < dgemm["Terra (tuned)"], dgemm
    assert sgemm["Terra (tuned)"] > 2 * sgemm["unvectorized kernel (V=1)"], \
        sgemm


def _explicit_vectors_win_in_2013_mode(tables, unit):
    """Figure 8: against scalar code as 2013 compilers emitted it, the
    vectorized and the line-buffered schedules both beat the matching
    one.  (With default flags gcc vectorizes the baseline too and the
    ladder flattens; EXPERIMENTS.md records both.)"""
    _, emulated = tables
    ms = emulated.column(unit)
    assert ms["+ vectorization"] < ms["matching Orion"], ms
    assert ms["+ line buffering"] < ms["matching Orion"], ms


def test_fig8_fluid_schedule_ladder():
    """Also ROADMAP 9(c) at default flags: the vectorized + line-buffered
    step, advection included, beats the hand-written C step by >10 %."""
    tables = report.fig8_fluid()
    _explicit_vectors_win_in_2013_mode(tables, "ms/step")
    default = tables[0]
    orion, c = default.column("ms/step"), default.column("C ms/step")
    rung = "+ line buffering"
    assert orion[rung] <= 0.9 * c[rung], default.rows


def test_fig8_area_filter_schedule_ladder():
    _explicit_vectors_win_in_2013_mode(report.fig8_area(), "ms")


def test_pointwise_inline_beats_materialize():
    """§6.2: inlining the four point-wise kernels beats materializing
    every stage (paper 3.8x; we assert >1.3x)."""
    (table,) = report.pointwise()
    ms = table.column("ms/frame")
    assert ms["materialize every stage"] > 1.3 * ms["inline everything"], ms


def test_class_dispatch_within_tolerance_of_c_vtable():
    """§6.3.1: a javalike virtual call costs what a C vtable call costs
    (paper: within 1%; the bound here is noise-proof)."""
    (table,) = report.dispatch()
    ns = table.column("ns/call")
    assert ns["Terra class system (virtual)"] < \
        1.25 * ns["C vtable (what C++ compiles to)"], ns


def test_fig9_normals_favor_aos_translate_favors_soa():
    """The Figure 9 crossover: AoS wins the gather-heavy normals
    kernel, SoA wins the streaming translate."""
    (table,) = report.fig9()
    normals, translate = table.column("calc normals"), \
        table.column("translate")
    assert normals["AoS"] > normals["SoA"], normals
    assert translate["SoA"] > translate["AoS"], translate


# -- this repository's own shapes ---------------------------------------------

def test_autovec_beats_scalar():
    """>=1.3x at float32 (16 lanes); double (8 lanes) has a softer floor."""
    (table,) = report.autovec()
    scalar, vector = table.column("scalar (level 1)"), \
        table.column("vector (level 2)")
    assert scalar["float"] > 1.3 * vector["float"], (scalar, vector)
    assert scalar["double"] > 1.1 * vector["double"], (scalar, vector)


def test_schedules_win_on_two_families():
    """The best tile schedule beats the naive staging by >=1.5x on at
    least two of attention / dequant / scan."""
    best = {}
    for table in report.schedules():
        ms = table.column("ms")
        best[table.title] = ms.pop("naive") / min(ms.values())
    assert sum(s >= 1.5 for s in best.values()) >= 2, best


def test_staged_sort_beats_qsort():
    (table,) = report.sort()
    ms = table.column("ms")
    assert ms["staged Sort(float64)"] < ms["libc qsort"], ms


def test_passes_never_enlarge_emitted_c():
    (table,) = report.passes()
    size = table.column("bytes")
    assert size["on (backend default)"] <= size["off (level 0)"], size


def test_parallel_compile_not_slower_than_serial():
    (table,) = report.compile_pool()
    (_, serial), (jobs, pooled) = table.rows
    if jobs > 1:  # generous slack: scheduling noise, not a slower pool
        assert pooled < serial * 1.10, table.rows


def test_tiering_costs_nothing_warm_or_cold():
    _, table = report.tiering()
    ms = table.column("ms")
    # small absolute slack absorbs timer noise on the sub-ms comparisons
    assert ms["warm tiered (tier 1)"] <= 1.2 * ms["warm AOT C"] + 1.0, ms
    assert ms["first call, tiered (tier 0)"] <= \
        2.0 * ms["first call, pure interp"] + 10.0, ms


def test_parallel_fluid_is_pure_speedup():
    """parallel(y) beats serial by >=1.5x given >=4 cores; with fewer it
    must stay within 1.3x of serial (the dispatch overhead bound)."""
    (table,) = report.parallel_fluid()
    (_, serial), (_, parallel) = table.rows
    if (os.cpu_count() or 1) >= 4:
        assert serial >= 1.5 * parallel, table.rows
    else:
        assert parallel <= 1.3 * serial + 1.0, table.rows


def test_fluid_advect_keeps_up_with_the_c_reference():
    """ROADMAP 5(a): advect, staged on its grid as the C reference's
    ``#define``s are, stays within 1.3x of the C advect (about 1.5x while
    the grid was three runtime arguments); and the one pass that advects
    u and v along a shared back-trace beats the C reference's two
    advects."""
    (table,) = report.fluid_parts()
    orion, c = table.column("Orion ms"), table.column("C ms")
    assert orion["advect"] <= 1.3 * c["advect"], table.rows
    uv = "velocity advect (u, v)"
    assert orion[uv] <= 0.9 * c[uv], table.rows
