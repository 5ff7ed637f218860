"""Respecialization unit tests: value profiling, constant selection
(safety rules), variant construction, and the entry guard."""

from repro import terra
from repro.exec import TierState, respec
from repro.exec.dispatch import VARYING

SCALE = """
terra scale(n : int32, k : int32) : int32
  return n * k
end
"""

MUTATES = """
terra bump(x : int32, y : int32) : int32
  x = x + 1
  return x * y
end
"""

MIXED = """
terra mixed(n : int32, a : double, flag : bool) : double
  if flag then return a * [double](n) end
  return a
end
"""


def _profiled(fn, calls):
    """The value profile a tier-0 trampoline builds over ``calls``."""
    st = TierState(len(fn.param_types))
    for args in calls:
        st.observe(args)
    return st.profile


def test_guardable_types():
    fn = terra(MIXED)
    n_ty, a_ty, flag_ty = fn.param_types
    assert respec.guardable_type(n_ty)         # int32
    assert respec.guardable_type(flag_ty)      # bool
    assert not respec.guardable_type(a_ty)     # double: -0.0/NaN hazards


def test_profile_slots():
    """One ``[observations, value | VARYING]`` slot per parameter; only an
    exact int / bool seen on every call is a value (1 is not True)."""
    fn = terra(MIXED)
    assert _profiled(fn, []) == [[0, None]] * 3
    assert _profiled(fn, [(8, 0.5, True), (8, 0.5, True), (8, 0.25, 1)]) == \
        [[3, 8], [3, VARYING], [3, VARYING]]
    assert _profiled(fn, [(None, 2, False), (8, 2, False)]) == \
        [[2, VARYING], [2, 2], [2, False]]
    assert respec.stable_consts(fn, _profiled(fn, [])) == {}


def test_stable_consts_picks_only_safe_params():
    fn = terra(MIXED)
    # every argument repeats: n and flag qualify, the double never does
    stats = _profiled(fn, [(6, 2.5, True)] * 3)
    consts = respec.stable_consts(fn, stats)
    assert consts == {0: 6, 2: True}


def test_stable_consts_rejects_mutated_params():
    fn = terra(MUTATES)
    stats = _profiled(fn, [(5, 7), (5, 7)])
    consts = respec.stable_consts(fn, stats)
    assert 0 not in consts          # x is assigned in the body
    assert consts == {1: 7}


def test_min_observations_threshold():
    fn = terra(SCALE)
    stats = _profiled(fn, [(8, 3)])
    assert respec.stable_consts(fn, stats, min_observations=2) == {}
    assert 0 in respec.stable_consts(fn, stats, min_observations=1)


def test_variant_is_bit_identical_on_guard_values(backend):
    fn = terra(SCALE)
    variant = respec.specialize_variant(fn, {0: 6})
    assert variant is not None
    assert variant.name.startswith("scale_spec")
    # same arity: generic and specialized entries are interchangeable
    assert len(variant.param_types) == len(fn.param_types)
    for k in (-3, 0, 41):
        assert variant.compile(backend)(6, k) == fn.compile(backend)(6, k)


def test_guard_compares_converted_machine_values():
    fn = terra(SCALE)
    variant = respec.specialize_variant(fn, {0: 6})
    rs = respec.Respecialized(fn, variant, {0: 6}, handle=lambda *a: None)
    assert rs.matches((6, 99))
    assert not rs.matches((7, 99))
    assert not rs.matches((6,))                 # arity mismatch
    # int32 wraps: 2**32 + 6 converts to the same machine value as 6,
    # exactly like the generic entry would receive it
    assert rs.matches((2 ** 32 + 6, 99))
    assert not rs.matches(("6", 99))            # conversion error = miss


def test_guard_tries_a_compare_before_it_converts(monkeypatch):
    """An ``int`` equal to the spliced value never pays
    ``python_to_primitive``; everything else does, so out-of-range ints,
    bools and numpy ints guard exactly as the generic entry wraps them."""
    import numpy as np
    fn = terra(MIXED)
    rs = respec.Respecialized(fn, None, {0: 6, 2: True},
                              handle=lambda *a: None)
    converted = []
    convert = respec.convert.python_to_primitive
    monkeypatch.setattr(
        respec.convert, "python_to_primitive",
        lambda value, ty: converted.append(value) or convert(value, ty))
    rows = [                       # args, matches, what had to convert
        ((6, 0.5, 1), True, []),                    # 1 == True: a compare
        ((6, 0.5, True), True, [True]),
        ((6, 0.5, 2), True, [2]),                   # bool(2) is True
        ((6, 0.5, 0), False, [0]),
        ((2 ** 32 + 6, 0.5, 1), True, [2 ** 32 + 6]),
        ((6 - 2 ** 32, 0.5, 1), True, [6 - 2 ** 32]),
        ((np.int64(6), 0.5, 1), True, [np.int64(6)]),
        ((np.int8(6), 0.5, np.True_), True, [np.int8(6), np.True_]),
        ((6.0, 0.5, 1), True, [6.0]),               # a whole float wraps too
        ((True, 0.5, 1), False, [True]),            # int32(True) is 1, not 6
        ((7, 0.5, 1), False, [7]),
        ((6.5, 0.5, 1), False, [6.5]),              # FFIError: a miss
        ((None, 0.5, 1), False, [None]),
    ]
    for args, matches, paid in rows:
        del converted[:]
        assert rs.matches(args) is matches, args
        assert converted == paid and \
            [type(v) for v in converted] == [type(v) for v in paid], args


def test_varying_args_produce_no_variant():
    fn = terra(SCALE)
    stats = _profiled(fn, [(1, 1), (2, 2), (3, 3)])
    assert respec.stable_consts(fn, stats) == {}
    assert respec.stage_variant(fn, stats) is None


EXTREME = """
terra low(x : int64, y : int64) : int64
  if x < y then return x end
  return y
end
"""

EXTREME32 = """
terra low32(x : int32, y : int32) : int32
  if x < y then return x end
  return y
end
"""

BOOLSEL = """
terra sel(flag : bool, a : int32, b : int32) : int32
  if flag then return a end
  return b
end
"""


def test_splice_int64_min_compiles_and_runs(backend):
    # INT64_MIN as a bare C literal overflows long long (the grammar is
    # unary minus applied to 9223372036854775808LL); the emitter must
    # spell it (min+1) - 1.  Splicing it is the easiest way to force the
    # literal into generated code.
    lo = -(2 ** 63)
    fn = terra(EXTREME)
    variant = respec.specialize_variant(fn, {0: lo})
    assert variant is not None
    assert variant.compile(backend)(lo, 5) == lo
    assert variant.compile(backend)(lo, lo) == lo


def test_splice_int32_min_compiles_and_runs(backend):
    lo = -(2 ** 31)
    fn = terra(EXTREME32)
    variant = respec.specialize_variant(fn, {0: lo})
    assert variant is not None
    assert variant.compile(backend)(lo, 7) == lo


def test_splice_bool_param_as_zero_one(backend):
    # a spliced bool must reach C as 0/1, never Python's repr
    fn = terra(BOOLSEL)
    stats = _profiled(fn, [(True, 10, 20), (True, 11, 21)])
    consts = respec.stable_consts(fn, stats)
    assert consts[0] is True
    for flag_const in (True, False):
        variant = respec.specialize_variant(fn, {0: flag_const})
        assert variant is not None
        got = variant.compile(backend)(flag_const, 10, 20)
        assert got == (10 if flag_const else 20)


def test_emitted_c_spells_extreme_constants():
    from repro import get_backend
    c = get_backend("c")
    fn = terra(EXTREME)
    variant = respec.specialize_variant(fn, {0: -(2 ** 63)})
    src = c.emit_source(variant)
    assert "-9223372036854775808" not in src
    assert "-9223372036854775807LL - 1" in src
    flagged = respec.specialize_variant(terra(BOOLSEL), {0: True})
    src = c.emit_source(flagged)
    assert "True" not in src
