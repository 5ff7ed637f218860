"""Differential testing of the pass pipeline (satellite of the refactor).

Each program below is compiled three ways:

* interpreter with the pipeline at the level that ships (the default),
* interpreter with the pipeline forced off (``pipeline_override(0)``),
* the C backend (the same level as the interpreter's default).

All three must agree on every input.  With no C compiler on the host the
two interpreter legs are still compared, and the C leg skips.  A fresh TerraFunction is built per
configuration because a function keeps one handle per backend, at the
level it was first compiled at — reusing one function would silently hand
the "no passes" run the handle the pipelined run built.

Trap behaviour is compared interp-with vs interp-without only: the C
build of a dividing kernel would SIGFPE the test process rather than
raise a catchable error.
"""

import pytest

from repro import terra
from repro.errors import TrapError
from repro.passes import PIPELINE_NONE, pipeline_override

# (name, source, argument tuples)
PROGRAMS = [
    ("arith_mix", """
     terra f(x : int, y : int) : int
       var a = (x + 0) * 1 + y * 2
       var b = (a + 3) + 4
       return b - (y << 1)
     end
     """,
     [(0, 0), (5, -3), (-7, 9), (2147483640, 1)]),

    ("loops_and_branches", """
     terra f(n : int) : int
       var acc = 0
       for i = 0, n do
         if i % 2 == 0 then acc = acc + i * 3
         elseif i % 3 == 0 then acc = acc - i
         else acc = acc + 1 end
       end
       while acc > 50 do acc = acc - 17 end
       return acc
     end
     """,
     [(0,), (1,), (7,), (25,)]),

    ("dead_code_rich", """
     terra f(x : int) : int
       var dead1 = x * 7
       var keep = x + 1
       var dead2 = keep - 2
       dead1 = dead1 + dead2
       if false then keep = dead1 end
       return keep * (1 + 1)
     end
     """,
     [(-4,), (0,), (11,)]),

    ("invariant_heavy", """
     terra f(a : int, b : int, n : int) : int
       var acc = 0
       for i = 0, n do
         for j = 0, n do
           acc = acc + a * b + (a + b) * 2 + i - j
         end
       end
       return acc
     end
     """,
     [(2, 3, 0), (2, 3, 4), (-5, 7, 3)]),

    ("float_kernel", """
     terra f(x : double, n : int) : double
       var s = 0.0
       for i = 0, n do
         s = s + x * 0.5 + [double](i)
       end
       return s
     end
     """,
     [(1.5, 4), (-2.25, 7), (0.0, 0)]),

    ("short_circuit", """
     terra f(x : int, y : int) : int
       if x > 0 and y / x > 1 then return 1 end
       if x == 0 or y % (x + 1) == 0 then return 2 end
       return 3
     end
     """,
     [(2, 6), (0, 99), (3, 1), (-2, 5)]),

    ("pointer_walk", """
     terra f(p : &int, n : int) : int
       var s = 0
       for i = 0, n do
         s = s + p[i] * 2 + 1
       end
       return s
     end
     """,
     None),  # arguments built below (needs numpy buffers)
]


def compile_config(source, backend, passes_on):
    """Fresh function per configuration: one handle per backend."""
    fn = terra(source, env={})
    if passes_on:
        return fn.compile(backend)
    with pipeline_override(PIPELINE_NONE):
        return fn.compile(backend)


@pytest.mark.parametrize(
    "name,source,argsets",
    [p for p in PROGRAMS if p[2] is not None],
    ids=[p[0] for p in PROGRAMS if p[2] is not None])
def test_three_way_agreement(name, source, argsets, request):
    with_passes = compile_config(source, "interp", True)
    without_passes = compile_config(source, "interp", False)
    expected = [without_passes(*args) for args in argsets]
    for args, want in zip(argsets, expected):
        assert with_passes(*args) == want, (name, args)
    request.getfixturevalue("cbackend")     # the C leg skips with no cc
    c_backend = compile_config(source, "c", True)
    for args, want in zip(argsets, expected):
        assert c_backend(*args) == want, (name, args)


def test_pointer_program_three_ways(request):
    import numpy as np
    _, source, _ = next(p for p in PROGRAMS if p[0] == "pointer_walk")
    with_passes = compile_config(source, "interp", True)
    without_passes = compile_config(source, "interp", False)
    buf = np.array([3, -1, 4, 1, 5, -9], dtype=np.int32)
    expected = [without_passes(buf, n) for n in (0, 1, 6)]
    for n, want in zip((0, 1, 6), expected):
        assert with_passes(buf, n) == want
    request.getfixturevalue("cbackend")     # the C leg skips with no cc
    c_backend = compile_config(source, "c", True)
    for n, want in zip((0, 1, 6), expected):
        assert c_backend(buf, n) == want


TRAP_PROGRAMS = [
    ("div_by_zero", "terra f(x : int, y : int) : int return x / y end",
     (10, 0)),
    ("mod_by_zero", "terra f(x : int, y : int) : int return x %% y end"
     % (), (10, 0)),
    ("dead_var_still_traps", """
     terra f(x : int) : int
       var unused = x / (x - x)
       return x
     end
     """, (5,)),
    ("trap_behind_short_circuit", """
     terra f(b : bool, x : int) : bool
       return b and (10 / x > 0)
     end
     """, (True, 0)),
]


@pytest.mark.parametrize("name,source,args", TRAP_PROGRAMS,
                         ids=[t[0] for t in TRAP_PROGRAMS])
def test_traps_preserved_by_pipeline(name, source, args):
    """Optimized and unoptimized interpretation trap on the same inputs."""
    with_passes = compile_config(source, "interp", True)
    without_passes = compile_config(source, "interp", False)
    with pytest.raises(TrapError):
        without_passes(*args)
    with pytest.raises(TrapError):
        with_passes(*args)


def test_short_circuit_non_trap_inputs_agree():
    _, source, _ = next(t for t in TRAP_PROGRAMS
                        if t[0] == "trap_behind_short_circuit")
    with_passes = compile_config(source, "interp", True)
    without_passes = compile_config(source, "interp", False)
    for args in [(False, 0), (True, 5), (False, 3)]:
        assert with_passes(*args) == without_passes(*args)
