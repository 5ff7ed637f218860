"""Environment-capture tests: the shared lexical environment (§4.1)."""

import pytest

from repro import int_, quote_, symbol, terra
from repro.core.ast import Escape
from repro.core.env import Environment, capture, from_mapping
from repro.errors import SpecializeError

MODULE_LEVEL = 777


class TestCapture:
    def test_function_locals(self):
        local_value = 5
        f = terra("terra f() : int return local_value end")
        assert f() == 5

    def test_module_globals(self):
        f = terra("terra f() : int return MODULE_LEVEL end")
        assert f() == 777

    def test_locals_shadow_globals(self):
        MODULE_LEVEL = 1  # noqa: F841 - shadows the module global
        f = terra("terra f() : int return MODULE_LEVEL end")
        assert f() == 1

    def test_explicit_env_overlay(self):
        x = 1
        f = terra("terra f() : int return x + y end", env={"y": 10})
        assert f() == 11

    def test_explicit_env_shadows_locals(self):
        x = 1  # noqa: F841
        f = terra("terra f() : int return x end", env={"x": 2})
        assert f() == 2

    def test_comprehension_sees_enclosing_locals(self):
        base = 100
        acc = symbol(int_, "acc")
        qs = [quote_("[acc] = [acc] + [base] + [i]") for i in range(2)]
        f = terra("""
        terra f() : int
          var [acc] = 0
          [qs]
          return [acc]
        end
        """)
        assert f() == 201

    def test_nested_comprehensions(self):
        k = 3
        acc = symbol(int_, "acc")
        qs = [q for qs_ in
              [[quote_("[acc] = [acc] + [k] * [i] + [j]") for j in range(2)]
               for i in range(2)] for q in qs_]
        f = terra("""
        terra f() : int
          var [acc] = 0
          [qs]
          return [acc]
        end
        """)
        assert f() == sum(3 * i + j for i in range(2) for j in range(2))

    def test_terra_primitive_names_beat_builtins(self):
        # `int`, `float`, `bool` resolve to Terra types in type positions
        f = terra("terra f(x : float) : int return [int](x) end")
        assert f(3.5) == 3

    def test_builtins_available_in_escapes(self):
        f = terra("terra f() : int return [len([1,2,3])] end")
        assert f() == 3


class TestEnvironmentObject:
    def test_lookup_order(self):
        env = Environment({"a": 1}, {"a": 2, "b": 3})
        assert env.lookup("a") == 1
        assert env.lookup("b") == 3

    def test_missing_raises(self):
        env = Environment({}, {})
        with pytest.raises(SpecializeError, match="zzz"):
            env.lookup("zzz")

    def test_default(self):
        env = Environment({}, {})
        assert env.lookup("zzz", None) is None

    def test_child_with(self):
        env = Environment({"a": 1}, {})
        child = env.child_with({"b": 2})
        assert child.lookup("a") == 1 and child.lookup("b") == 2
        with pytest.raises(SpecializeError):
            env.lookup("b")

    def test_eval_escape_terra_scope_shadows(self):
        env = Environment({"x": 10}, {})
        assert env.eval_escape(Escape("x"), {"x": 20}) == 20
        assert env.eval_escape(Escape("x")) == 10

    def test_pointer_sugar(self):
        from repro.core import types as T
        env = Environment({"T_": T.int32}, {})
        assert env.eval_escape(Escape("&T_")) is T.pointer(T.int32)
        assert env.eval_escape(Escape("&&T_")) is T.pointer(T.pointer(T.int32))

    def test_pointer_sugar_requires_type(self):
        env = Environment({"n": 42}, {})
        with pytest.raises(SpecializeError, match="Terra type"):
            env.eval_escape(Escape("&n"))

    def test_from_mapping(self):
        env = from_mapping({"k": 9})
        assert env.lookup("k") == 9
        assert from_mapping(env) is env
