"""Optimizer tests: folding is correct (differential) and actually fires."""

import pytest
from hypothesis import given, settings, strategies as st

from repro import get_backend, terra
from repro.core import tast
from repro.core import types as T
from repro.passes import PIPELINE_CANON, pipelined_body


def folded_body(source, env=None):
    fn = terra(source, env=env or {})
    fn.ensure_typechecked()
    return pipelined_body(fn.typed, PIPELINE_CANON)


def count_nodes(tree, kind):
    return sum(1 for n in tast.walk(tree) if isinstance(n, kind))


class TestFolding:
    def test_constant_arithmetic(self):
        body = folded_body("terra f() : int return (2 + 3) * 4 end")
        ret = body.statements[-1]
        assert isinstance(ret.expr, tast.TConst) and ret.expr.value == 20

    def test_wrapping_fold(self):
        body = folded_body("terra f() : int8 return [int8](100) + [int8](100) end")
        ret = body.statements[-1]
        assert isinstance(ret.expr, tast.TConst)
        assert ret.expr.value == -56  # 200 wraps in int8

    def test_float32_fold_rounds(self):
        import numpy as np
        body = folded_body("terra f() : float return 0.1f + 0.2f end")
        ret = body.statements[-1]
        assert ret.expr.value == np.float32(np.float32(0.1) + np.float32(0.2))

    def test_division_by_zero_not_folded(self):
        body = folded_body("terra f() : int return 1 / 0 end")
        ret = body.statements[-1]
        assert isinstance(ret.expr, tast.TBinOp)  # left for runtime trap

    def test_comparison_fold(self):
        body = folded_body("""
        terra f() : int
          if 3 < 5 then return 1 end
          return 0
        end
        """)
        # the if was resolved; only `return 1` remains
        assert isinstance(body.statements[0], tast.TReturn)

    def test_dead_branch_removed(self):
        body = folded_body("""
        terra f(x : int) : int
          if false then return 111 end
          return x
        end
        """)
        assert count_nodes(body, tast.TIf) == 0

    def test_while_false_removed(self):
        body = folded_body("""
        terra f(x : int) : int
          while false do x = x + 1 end
          return x
        end
        """)
        assert count_nodes(body, tast.TWhile) == 0

    def test_zero_trip_for_removed(self):
        body = folded_body("""
        terra f(x : int) : int
          for i = 10, 10 do x = x + i end
          return x
        end
        """)
        assert count_nodes(body, tast.TForNum) == 0

    def test_unreachable_after_return(self):
        body = folded_body("""
        terra f(x : int) : int
          return x
          x = x + 1
          return x + 2
        end
        """)
        assert len(body.statements) == 1

    def test_identity_simplification(self):
        body = folded_body("terra f(x : int) : int return (x + 0) * 1 end")
        ret = body.statements[-1]
        assert isinstance(ret.expr, tast.TVar)

    def test_float_mul_zero_not_simplified(self):
        # x*0 must stay: it is NaN for x=NaN
        body = folded_body("terra f(x : double) : double return x * 0.0 end")
        ret = body.statements[-1]
        assert isinstance(ret.expr, tast.TBinOp)

    def test_short_circuit_fold(self):
        body = folded_body("""
        terra f(b : bool) : bool
          return true and b
        end
        """)
        ret = body.statements[-1]
        assert isinstance(ret.expr, tast.TVar)

    def test_cast_fold(self):
        body = folded_body("terra f() : double return [double](7) end")
        ret = body.statements[-1]
        assert isinstance(ret.expr, tast.TConst) and ret.expr.value == 7.0

    def test_staged_constants_collapse(self):
        """The motivating case: staged code full of baked meta-constants
        folds to almost nothing."""
        NB, RM = 32, 4
        body = folded_body(
            "terra f(x : int) : int return x + NB * RM + (NB / RM) end",
            env={"NB": NB, "RM": RM})
        ret = body.statements[-1]
        # one addition of x with a single folded constant remains
        consts = [n for n in tast.walk(ret) if isinstance(n, tast.TConst)]
        assert len(consts) == 1 and consts[0].value == NB * RM + NB // RM


class TestSemanticsPreserved:
    @pytest.mark.usefixtures("cbackend")
    @settings(max_examples=30, deadline=None)
    @given(st.integers(-1000, 1000), st.integers(-1000, 1000))
    def test_differential_after_optimization(self, a, b):
        """Both backends consume the same pipelined IR and must agree."""
        fn = terra("""
        terra f(a : int, b : int) : int
          var acc = (a + 0) * 1 + (7 - 7)
          if 2 > 1 then acc = acc + b end
          while false do acc = 999 end
          for i = 0, 3 do acc = acc + i * (4 / 2) end
          return acc and (255 or 0)
        end
        """, env={})
        assert fn.compile("c")(a, b) == fn.compile("interp")(a, b)

    def test_interp_runs_optimized(self):
        fn = terra("""
        terra f(x : int) : int
          if true then return x + (2 * 3) end
          return -1
        end
        """)
        assert fn.compile("interp")(10) == 16
        # the linker built the shipped level before the backend compiled:
        # the dead branch is gone from the tree the interpreter walks
        body = pipelined_body(fn.typed, PIPELINE_CANON)
        assert count_nodes(body, tast.TIf) == 0
        assert count_nodes(fn.typed.body, tast.TIf) == 1
