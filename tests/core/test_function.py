"""TerraFunction lifecycle tests: declare/define, compile caching,
cross-backend behaviour, globals and constants."""

import uuid

import pytest

from repro import (Constant, GlobalVar, constant, declare, global_,
                   terra)
from repro.core import types as T
from repro.errors import LinkError, SpecializeError, TypeCheckError


class TestLifecycle:
    def test_states(self):
        f = declare("st")
        assert not f.isdefined() and f.state == "undefined"
        # a body no process compiled before: its first call must typecheck
        # (a repeat may bind from the structural memo with no typed IR at
        # all — tests/core/test_spec_memo.py)
        tag = uuid.uuid4().int % 10 ** 9
        terra(f"terra st() : int return {tag} end", env={"st": f})
        assert f.isdefined()
        assert f.typed is None  # lazy: not typechecked yet
        assert f() == tag
        assert f.typed is not None

    def test_gettype_triggers_typecheck(self):
        f = terra("terra g(x : int) return x * 2 end")
        assert f.typed is None
        ftype = f.gettype()
        assert ftype.returns == (T.int32,)
        assert f.typed is not None

    def test_peektype_no_typecheck(self):
        f = terra("terra g2(x : int) return x end")
        assert f.peektype() is None
        f2 = terra("terra g3(x : int) : int return x end")
        assert f2.peektype() is not None  # annotated: type known eagerly

    def test_compile_caches_handle(self, cbackend):
        f = terra("terra h() : int return 1 end")
        assert f.compile("c") is f.compile("c")

    def test_call_dispatches_default_backend(self):
        f = terra("terra h2() : int return 5 end")
        assert f() == 5

    def test_both_backends_from_one_function(self, cbackend):
        f = terra("terra h3(x : int) : int return x + 1 end")
        assert f.compile("c")(1) == f.compile("interp")(1) == 2

    def test_define_twice_rejected(self):
        f = terra("terra once() : int return 1 end")
        with pytest.raises(SpecializeError, match="already defined"):
            f.define(f.param_symbols, f.param_types, T.int32, f.body)

    def test_external_has_no_body(self):
        from repro import includec
        malloc = includec("stdlib.h")["malloc"]
        assert malloc.is_external and malloc.isdefined()
        assert malloc.body is None

    def test_repr(self):
        f = terra("terra shown(x : int) : int return x end")
        assert "shown" in repr(f) and "defined" in repr(f)


class TestGlobals:
    def test_types_enforced(self):
        with pytest.raises(TypeCheckError):
            global_("not a type")
        with pytest.raises(TypeCheckError):
            constant("not a type", 1)

    def test_global_struct(self):
        from repro import struct
        S = struct("struct GS { a : int, b : double }")
        g = global_(S, {"a": 3, "b": 1.5}, "gs")
        f = terra("terra f() : double return g.a + g.b end", env={"g": g})
        assert f() == 4.5

    def test_global_array(self):
        g = global_(T.array(T.int32, 4), [1, 2, 3, 4], "ga")
        f = terra("""
        terra f() : int
          var s = 0
          for i = 0, 4 do s = s + g[i] end
          return s
        end
        """, env={"g": g})
        assert f() == 10

    def test_read_global_aggregate_from_python(self):
        g = global_(T.array(T.int32, 2), [7, 8], "gr")
        value = g.get()
        assert value.totuple() == (7, 8)

    def test_constant_is_immutable_value(self):
        c = constant(T.float64, 2.5)
        assert isinstance(c, Constant)
        f = terra("terra f() : double return [c] * 2.0 end")
        assert f() == 5.0


class TestLinking:
    @pytest.mark.usefixtures("c_default")
    def test_component_compiled_together(self):
        fns = terra("""
        terra a1(x : int) : int return x + 1 end
        terra b1(x : int) : int return a1(x) * 2 end
        terra c1(x : int) : int return b1(x) + a1(x) end
        """)
        # calling the root compiles the whole component; all get handles
        assert fns.c1(1) == 4 + 2
        assert "c" in fns.a1.dispatcher.handles

    def test_deep_chain(self):
        prev = terra("terra base(x : int) : int return x end")
        env = {"prev": prev}
        for i in range(20):
            prev = terra("terra lnk(x : int) : int return prev(x) + 1 end",
                         env={"prev": prev})
        assert prev(0) == 20

    def test_link_error_names_the_function(self):
        ghost = declare("the_missing_one")
        f = terra("terra f() : int return ghost() end", env={"ghost": ghost})
        with pytest.raises((LinkError, TypeCheckError),
                           match="the_missing_one"):
            f()
