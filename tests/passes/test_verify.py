"""IR verifier tests: well-formed trees pass, sabotaged trees are caught.

Each sabotage below simulates a realistic pass bug — replacing a node
with one of the wrong type, dropping a declaration, corrupting an
operand — and the verifier must turn it into an IRVerifyError instead of
letting it reach a backend as a silent miscompile.
"""

import pytest

from repro import terra
from repro.core import tast
from repro.core import types as T
from repro.core.symbols import Symbol
from repro.errors import IRVerifyError
from repro.passes import verify_function
from repro.passes.manager import PassManager


def typed_fn(source, env=None):
    fn = terra(source, env=env or {})
    fn.ensure_typechecked()
    return fn.typed


GOOD_PROGRAMS = [
    "terra f(x : int) : int return x + 1 end",
    "terra f(x : double) : double return -x * 2.0 end",
    """
    terra f(n : int) : int
      var acc = 0
      for i = 0, n do acc = acc + i end
      while acc > 100 do acc = acc - 7 end
      repeat acc = acc + 1 until acc % 2 == 0
      return acc
    end
    """,
    """
    terra f(p : &int, n : int) : int
      var s = 0
      for i = 0, n do s = s + p[i] end
      return s
    end
    """,
    """
    terra f(b : bool, x : int) : int
      if b and x > 0 then return 1 elseif not b then return 2 end
      return 0
    end
    """,
]


@pytest.mark.parametrize("source", GOOD_PROGRAMS)
def test_wellformed_accepted(source):
    verify_function(typed_fn(source))


def test_accepts_after_every_level():
    from repro.passes import LEVEL_PASSES, pipelined_body
    typed = typed_fn("""
    terra f(n : int) : int
      var acc = 0
      var dead = 42
      for i = 0, n do acc = acc + (n * 2) + i end
      return acc + (3 - 3)
    end
    """)
    for level in LEVEL_PASSES:
        verify_function(typed, body=pipelined_body(typed, level))


class TestSabotage:
    def test_mixed_operand_types(self):
        typed = typed_fn("terra f(x : int) : int return x + 1 end")
        ret = typed.body.statements[-1]
        ret.expr.rhs = tast.TConst(1, T.int64, None)  # int + int64
        with pytest.raises(IRVerifyError, match="arithmetic"):
            verify_function(typed)

    def test_wrong_result_type(self):
        typed = typed_fn("terra f(x : int) : int return x + 1 end")
        ret = typed.body.statements[-1]
        ret.expr.type = T.int64
        with pytest.raises(IRVerifyError):
            verify_function(typed)

    def test_missing_type(self):
        typed = typed_fn("terra f(x : int) : int return x + 1 end")
        ret = typed.body.statements[-1]
        ret.expr.type = None
        with pytest.raises(IRVerifyError, match="no resolved type"):
            verify_function(typed)

    def test_undeclared_variable(self):
        typed = typed_fn("terra f(x : int) : int return x end")
        ghost = Symbol(T.int32, "ghost")
        typed.body.statements[-1].expr = tast.TVar(ghost, T.int32, None)
        with pytest.raises(IRVerifyError, match="outside any declaring"):
            verify_function(typed)

    def test_variable_at_wrong_type(self):
        typed = typed_fn("""
        terra f() : int
          var x = 1
          return x
        end
        """)
        ret = typed.body.statements[-1]
        ret.expr.type = T.int64
        with pytest.raises(IRVerifyError, match="used at type"):
            verify_function(typed)

    def test_out_of_scope_use(self):
        """A declaration inside a do-block must not leak out of it."""
        typed = typed_fn("""
        terra f() : int
          do var y = 1 end
          return 0
        end
        """)
        decl = typed.body.statements[0].body.statements[0]
        sym = decl.symbols[0]
        typed.body.statements[-1].expr = tast.TVar(sym, T.int32, None)
        with pytest.raises(IRVerifyError, match="outside any declaring"):
            verify_function(typed)

    def test_assign_to_rvalue(self):
        typed = typed_fn("""
        terra f(x : int) : int
          x = 3
          return x
        end
        """)
        assign = typed.body.statements[0]
        assign.lhs[0] = tast.TBinOp("+", assign.lhs[0],
                                    tast.TConst(1, T.int32, None),
                                    T.int32, None)
        with pytest.raises(IRVerifyError, match="lvalue"):
            verify_function(typed)

    def test_assign_type_mismatch(self):
        typed = typed_fn("""
        terra f(x : int) : int
          x = 3
          return x
        end
        """)
        assign = typed.body.statements[0]
        assign.rhs[0] = tast.TConst(3.0, T.float64, None)
        with pytest.raises(IRVerifyError, match="assigns"):
            verify_function(typed)

    def test_unknown_cast_kind(self):
        typed = typed_fn("terra f(x : int) : double return [double](x) end")
        ret = typed.body.statements[-1]
        assert isinstance(ret.expr, tast.TCast)
        ret.expr.kind = "reinterpret"
        with pytest.raises(IRVerifyError, match="unknown cast kind"):
            verify_function(typed)

    def test_unrepresentable_cast(self):
        typed = typed_fn("terra f(x : int) : double return [double](x) end")
        ret = typed.body.statements[-1]
        ret.expr.kind = "ptr-int"  # int32 is not a pointer
        with pytest.raises(IRVerifyError, match="ptr-int"):
            verify_function(typed)

    def test_call_argument_type(self):
        fns = terra("""
        terra g(a : int64) : int64 return a end
        terra f(x : int) : int64 return g(x) end
        """, env={})
        fn = fns["f"]
        fn.ensure_typechecked()
        typed = fn.typed
        call = typed.body.statements[-1].expr
        assert isinstance(call, tast.TCall)
        call.args[0] = tast.TConst(1, T.int32, None)  # parameter is int64
        with pytest.raises(IRVerifyError, match="argument 0"):
            verify_function(typed)

    def test_return_type_mismatch(self):
        typed = typed_fn("terra f(x : int) : int return x end")
        typed.body.statements[-1].expr = tast.TConst(1.5, T.float64, None)
        with pytest.raises(IRVerifyError, match="returns"):
            verify_function(typed)

    def test_condition_not_bool(self):
        typed = typed_fn("""
        terra f(x : int) : int
          if x > 0 then return 1 end
          return 0
        end
        """)
        stat = typed.body.statements[0]
        cond, body = stat.branches[0]
        stat.branches[0] = (tast.TConst(1, T.int32, None), body)
        with pytest.raises(IRVerifyError, match="condition"):
            verify_function(typed)

    def test_unrepresentable_constant(self):
        typed = typed_fn("terra f() : int8 return [int8](1) end")
        typed.body.statements[-1].expr = tast.TConst(1000, T.int8, None)
        with pytest.raises(IRVerifyError, match="not representable"):
            verify_function(typed)

    def test_manager_catches_sabotage_between_passes(self):
        """With verify=True the manager re-checks after each transform, so
        a sabotaged input is reported before any backend could see it."""
        typed = typed_fn("terra f(x : int) : int return x + 1 end")
        typed.body.statements[-1].expr.rhs = tast.TConst(1, T.int64, None)
        with pytest.raises(IRVerifyError, match="after typechecking"):
            PassManager(["fold"], verify=True).run(typed)

    def test_env_enables_verifier_in_typechecker(self, monkeypatch):
        monkeypatch.setenv("REPRO_TERRA_VERIFY_IR", "1")
        fn = terra("terra f(x : int) : int return x + 1 end", env={})
        fn.ensure_typechecked()  # runs the verifier without error
        assert fn.typed is not None
