"""Dead-local/dead-store elimination: removes husks, preserves effects."""

import pytest

from repro import terra
from repro.core import tast
from repro.errors import TrapError
from repro.passes import PIPELINE_CANON, pipelined_body
from repro.passes.dce import DeadCodePass
from repro.passes.fold import FoldPass


def typed_fn(source, env=None):
    fn = terra(source, env=env or {})
    fn.ensure_typechecked()
    return fn


def decls(body):
    return [n for n in tast.walk(body) if isinstance(n, tast.TVarDecl)]


class TestElimination:
    def test_never_read_local_removed(self):
        fn = typed_fn("""
        terra f(x : int) : int
          var dead = 42
          return x
        end
        """)
        assert DeadCodePass().run(fn.typed) is True
        assert decls(fn.typed.body) == []

    def test_read_local_kept(self):
        fn = typed_fn("""
        terra f(x : int) : int
          var y = x + 1
          return y
        end
        """)
        assert DeadCodePass().run(fn.typed) is False
        assert len(decls(fn.typed.body)) == 1

    def test_dead_store_chain_fixpoint(self):
        """y is only read by the store to z; z is never read — both go."""
        fn = typed_fn("""
        terra f(x : int) : int
          var y = x + 1
          var z = y * 2
          z = z + y
          return x
        end
        """)
        assert DeadCodePass().run(fn.typed) is True
        assert decls(fn.typed.body) == []
        assert not any(isinstance(n, tast.TAssign)
                       for n in tast.walk(fn.typed.body))

    def test_address_taken_pins_variable(self):
        fns = terra("""
        terra g(p : &int) : int return @p end
        terra f(x : int) : int
          var y = x
          return g(&y)
        end
        """, env={})
        fn = fns["f"]
        fn.ensure_typechecked()
        assert DeadCodePass().run(fn.typed) is False
        assert len(decls(fn.typed.body)) == 1

    def test_partial_store_keeps_variable(self):
        """arr[0] = ... is not a whole-variable kill; arr stays."""
        fn = typed_fn("""
        terra f(x : int) : int
          var arr : int[4]
          arr[0] = x
          return x
        end
        """)
        DeadCodePass().run(fn.typed)
        assert len(decls(fn.typed.body)) == 1

    def test_impure_initializer_survives(self):
        """var y = 1/0 must still trap even though y is dead."""
        fn = typed_fn("""
        terra f(x : int) : int
          var y = x / (x - x)
          return x
        end
        """)
        assert DeadCodePass().run(fn.typed) is True
        assert decls(fn.typed.body) == []
        # the divide survives as a bare expression statement
        assert isinstance(fn.typed.body.statements[0], tast.TExprStat)
        with pytest.raises(TrapError):
            fn.compile("interp")(3)

    def test_call_initializer_survives(self, cbackend):
        fns = terra("""
        terra tick(p : &int) : int p[0] = p[0] + 1 return p[0] end
        terra f(p : &int) : int
          var unused = tick(p)
          return p[0]
        end
        """, env={})
        fn = fns["f"]
        fn.ensure_typechecked()
        DeadCodePass().run(fn.typed)
        assert decls(fn.typed.body) == []
        assert any(isinstance(n, tast.TCall)
                   for n in tast.walk(fn.typed.body))
        # the side effect still happens: tick increments before the read
        import numpy as np
        buf = np.array([5], dtype=np.int32)
        assert fn.compile(cbackend)(buf) == 6

    def test_folding_creates_dce_fodder(self):
        """After folding `if false` away, its would-be inputs die too."""
        fn = typed_fn("""
        terra f(x : int) : int
          var scratch = x * 3
          if false then x = scratch end
          return x
        end
        """)
        assert decls(pipelined_body(fn.typed, PIPELINE_CANON)) == []

    def test_partially_dead_multi_assign_keeps_declaration(self, cbackend):
        """x, y = ... with x dead and y live is removed all-or-nothing,
        so `var x` must survive alongside the retained store (regression:
        the declaration was once dropped while the assignment stayed,
        emitting C that referenced an undeclared symbol)."""
        fn = typed_fn("""
        terra f(a : int) : int
          var x : int
          var y : int
          x, y = a + 1, a + 2
          return y
        end
        """)
        assert DeadCodePass().run(fn.typed) is False
        assert len(decls(fn.typed.body)) == 2
        assert fn.compile(cbackend)(3) == 5
        assert fn.compile("interp")(3) == 5

    def test_loop_counter_not_removed(self):
        fn = typed_fn("""
        terra f(n : int) : int
          var acc = 0
          for i = 0, n do acc = acc + i end
          return acc
        end
        """)
        assert DeadCodePass().run(fn.typed) is False


class TestSemantics:
    def test_results_unchanged(self):
        src = """
        terra f(x : int) : int
          var dead1 = x * 7
          var keep = x + 1
          var dead2 = keep - 2
          return keep
        end
        """
        fn_raw = typed_fn(src)
        fn_opt = typed_fn(src)
        FoldPass().run(fn_opt.typed)
        DeadCodePass().run(fn_opt.typed)
        for x in (-5, 0, 3, 100):
            assert fn_raw.compile("interp")(x) == fn_opt.compile("interp")(x)
