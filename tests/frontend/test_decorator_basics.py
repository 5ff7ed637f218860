"""The ``@terra`` decorator frontend: surface behavior.

Parity with the string frontend is covered by test_parity; these tests
pin down the decorator's own contract — what lowers, what resolves,
what the definition object looks like.
"""

import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from repro import (TerraFunction, addr, declare, deref, int32, int64, ptr,
                   sqrt, terra)
from repro.errors import TerraError

REPO_SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")


@terra
def add(a: int32, b: int32) -> int32:
    return a + b


def test_returns_a_terra_function():
    assert isinstance(add, TerraFunction)
    assert add.name == "add"
    assert add.frontend == "pyast"
    assert add(3, 4) == 7
    assert str(add.gettype()) == "{int32,int32} -> {int32}"


def test_inferred_return_type():
    @terra
    def double_it(x: int32):
        return x * 2

    assert double_it(21) == 42
    assert str(double_it.gettype()) == "{int32} -> {int32}"


def test_none_annotation_is_unit():
    @terra
    def bump(p: ptr(int32)) -> None:
        p[0] = p[0] + 1

    buf = np.array([41], dtype=np.int32)
    assert bump(buf) is None
    assert buf[0] == 42


def test_python_builtin_annotations_name_terra_types():
    # int -> int32, float -> float32, bool -> bool (paper spellings)
    @terra
    def f(n: int, x: float, b: bool) -> float:
        if b:
            return x * n
        return x

    ty = f.gettype()
    assert str(ty) == "{int32,float,bool} -> {float}"
    assert f(3, 2.0, True) == 6.0


def test_typed_and_zero_init_locals():
    @terra
    def locals_(n: int32) -> int64:
        wide: int64 = n
        zero: int64
        return wide + zero

    assert locals_(7) == 7


def test_first_assignment_declares_per_block():
    # a first assignment inside a branch declares a *block-local*, like
    # Terra's `var`; the outer variable needs an outer declaration
    @terra
    def blocky(n: int32) -> int32:
        acc = 0
        if n > 0:
            acc = acc + n     # assigns the outer acc
            extra = acc * 2   # declares a branch-local
            acc = extra
        return acc

    assert blocky(5) == 10
    assert blocky(-5) == 0


def test_addr_and_deref():
    @terra
    def via_ptr(x: int32) -> int32:
        p = addr(x)
        return deref(p) + 1

    assert via_ptr(41) == 42


def test_addr_deref_markers_refuse_python_calls():
    with pytest.raises(TerraError, match="staging syntax"):
        addr(1)
    with pytest.raises(TerraError, match="staging syntax"):
        deref(1)


def test_calls_into_terra_functions_and_intrinsics():
    @terra
    def hyp(a: float, b: float) -> float:
        return sqrt(add_f(a * a, b * b))

    assert hyp(3.0, 4.0) == 5.0


add_f = terra("""
terra add_f(a : float, b : float) : float
  return a + b
end
""", env={})


def test_forward_declaration_fill_in():
    is_odd = declare("is_odd")

    @terra
    def is_even(n: int32) -> int32:
        if n == 0:
            return 1
        return is_odd(n - 1)

    @terra
    def is_odd(n: int32) -> int32:  # noqa: F811 - fills the declaration
        if n == 0:
            return 0
        return is_even(n - 1)

    assert is_even(10) == 1
    assert is_odd(10) == 0


def test_closure_cells_resolve():
    def make_scaler(k):
        @terra
        def scale(x: int32) -> int32:
            return x * k
        return scale

    assert make_scaler(3)(10) == 30
    assert make_scaler(-2)(10) == -20


def test_a_def_is_read_once_per_code_object(tmp_path, monkeypatch):
    """A kernel factory decorates one ``def`` per call: its source is read
    once.  The same ``def`` executed again from an edited file is another
    code object at the same file and line, and is read again."""
    import inspect
    reads, real = [], inspect.getsourcelines
    monkeypatch.setattr(inspect, "getsourcelines",
                        lambda obj: reads.append(obj) or real(obj))
    path = tmp_path / "kernel_factory.py"

    def load(body):
        path.write_text(textwrap.dedent(f"""
            from repro import terra, int32

            def make(k):
                @terra
                def scale(x: int32) -> int32:
                    return {body}
                return scale
        """))
        ns = {}
        exec(compile(path.read_text(), str(path), "exec"), ns)
        return ns["make"]

    make = load("x * k")
    assert make(3)(10) == 30 and make(-2)(10) == -20
    assert len(reads) == 1
    make = load("x * k + 1000")
    assert make(3)(10) == 1030
    assert len(reads) == 2


def test_multi_value_return():
    @terra
    def divmod_(a: int32, b: int32):
        return a / b, a % b

    assert divmod_(17, 5) == (3, 2)


def test_tuple_first_assignment_declares_both():
    @terra
    def sumdiff(a: int32, b: int32):
        s, d = a + b, a - b
        return s * d

    assert sumdiff(7, 3) == 40


def test_dispatches_through_shared_exec_layer(cbackend):
    from repro.exec import policy_override

    @terra
    def sq(x: int32) -> int32:
        return x * x

    with policy_override("interp"):
        assert sq(9) == 81
    with policy_override("c"):
        assert sq(9) == 81


def test_frontend_debug_knob_dumps_lowered_form(tmp_path):
    # must run from a real file: the decorator reads the defining source
    # via inspect, so `python -c` scripts cannot use @terra
    script = tmp_path / "dbg_kernel.py"
    script.write_text(textwrap.dedent("""
        from repro import terra, int32

        @terra
        def dbg(x: int32) -> int32:
            return x + 1

        print(dbg(1))
    """))
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
    env["REPRO_TERRA_FRONTEND_DEBUG"] = "1"
    proc = subprocess.run(
        [sys.executable, str(script)], capture_output=True, text=True,
        timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    assert "@terra lowered dbg" in proc.stderr
    assert "terra dbg" in proc.stderr  # the specialized prettyprint
