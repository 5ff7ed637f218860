"""Frontend parity as a performance property.

The `@terra` decorator is a *zero-cost* alternative surface: because
both frontends emit byte-identical C (ordinal local naming, one shared
emitter), a decorated kernel compiled after its string twin is a buildd
artifact-cache **hit** — no compiler invocation at all.  This file
measures that claim plus the decorator's definition-time overhead.

Run with ``pytest benchmarks/test_frontend.py -p no:benchmark -q -s``.
"""

import time

import pytest

import repro.buildd as buildd
from repro import double, int32, ptr, terra
from repro.buildd import cc_available

pytestmark = pytest.mark.skipif(not cc_available(), reason="no C compiler")


def test_decorated_twin_is_a_cache_hit():
    """String twin compiles (warming the cache); the decorated twin's
    compile must be served from the artifact cache without invoking the
    compiler again."""
    dotp_s = terra("""
    terra dotp(a : &double, b : &double, n : int) : double
      var s = 0.0
      for i = 0, n do
        s = s + a[i] * b[i]
      end
      return s
    end
    """)
    dotp_s.compile("c")

    before = buildd.stats()

    @terra
    def dotp(a: ptr(double), b: ptr(double), n: int32) -> double:
        s: double = 0.0
        for i in range(n):
            s = s + a[i] * b[i]
        return s

    assert dotp.get_c_source() == dotp_s.get_c_source()
    dotp.compile("c")

    after = buildd.stats()
    hits = after["cache_hits"] - before["cache_hits"]
    compiles = after["compiles"] - before["compiles"]
    print(f"\nfrontend cache parity: +{hits} hits, +{compiles} compiles "
          f"for the decorated twin")
    assert hits >= 1
    assert compiles == 0


def test_definition_overhead_is_bounded():
    """Defining through the decorator vs the string frontend; both
    include eager specialization.  One literal (one ``def``) is defined
    30 times, so after the first definition both sides pay
    specialization only: both trees come from the template cache
    (``repro.core.parser.parsed``), the decorator's keyed by the text
    of its ``def`` — which it still reads (``inspect``) per decoration.
    The decorator may cost more per definition, but must stay within an
    order of magnitude — it is a definition-time (not call-time) cost."""
    n = 30

    t0 = time.perf_counter()
    for _ in range(n):
        terra("""
        terra bump(x : int) : int
          return x + 1
        end
        """)
    string_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    for _ in range(n):
        @terra
        def bump(x: int32) -> int32:
            return x + 1
    pyast_s = time.perf_counter() - t0

    print(f"\ndefinition time over {n} defs: string {string_s*1e3:.1f} ms, "
          f"@terra {pyast_s*1e3:.1f} ms ({pyast_s/string_s:.2f}x)")
    assert pyast_s < string_s * 25, (
        "decorator definition overhead grew past an order of magnitude")


def test_call_time_is_frontend_independent():
    """Once compiled, per-call dispatch cost must not depend on the
    defining frontend (same CompiledFunction machinery)."""
    twin_s = terra("""
    terra scale(x : int) : int
      return x * 3
    end
    """)

    @terra
    def scale(x: int32) -> int32:
        return x * 3

    twin_s.compile("c")
    scale.compile("c")

    n = 20000

    t0 = time.perf_counter()
    for i in range(n):
        twin_s(i)
    t_string = time.perf_counter() - t0

    t0 = time.perf_counter()
    for i in range(n):
        scale(i)
    t_pyast = time.perf_counter() - t0

    print(f"\nper-call: string {t_string/n*1e6:.2f} us, "
          f"@terra {t_pyast/n*1e6:.2f} us over {n} calls")
    # generous bound: the two should be statistically identical
    assert t_pyast < t_string * 2.0
