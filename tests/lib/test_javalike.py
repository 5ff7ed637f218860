"""Class-system tests — paper §6.3.1 behaviours."""

import pytest

from repro import float_, struct, terra
from repro.core import types as T
from repro.lib import javalike as J


def make_shapes():
    Area = J.interface({"area": ([], float_)}, name="Area")
    Shape = struct("struct Shape { tag : int }")
    terra("terra Shape:area() : float return 0.f end", env={"Shape": Shape})
    Square = struct("struct Square { len : float }")
    J.extends(Square, Shape)
    J.implements(Square, Area)
    terra("terra Square:area() : float return self.len * self.len end",
          env={"Square": Square})
    return Area, Shape, Square


class TestDispatch:
    def test_virtual_through_class(self):
        _, _, Square = make_shapes()
        f = terra("""
        terra f(l : float) : float
          var s : Square
          s:init()
          s.len = l
          return s:area()
        end
        """, env={"Square": Square})
        assert f(4.0) == 16.0

    def test_virtual_through_parent_pointer(self):
        """A child override must be reached through a parent pointer —
        true virtual dispatch."""
        _, Shape, Square = make_shapes()
        f = terra("""
        terra callit(p : &Shape) : float return p:area() end
        terra f(l : float) : float
          var s : Square
          s:init()
          s.len = l
          return callit([&Shape](&s))
        end
        """, env={"Square": Square, "Shape": Shape})
        assert f.f(3.0) == 9.0

    def test_implicit_upcast(self):
        """&Square converts implicitly to &Shape via __cast."""
        _, Shape, Square = make_shapes()
        f = terra("""
        terra callit(p : &Shape) : float return p:area() end
        terra f(l : float) : float
          var s : Square
          s:init()
          s.len = l
          return callit(&s)   -- implicit &Square -> &Shape
        end
        """, env={"Square": Square, "Shape": Shape})
        assert f.f(5.0) == 25.0

    def test_interface_dispatch(self):
        Area, _, Square = make_shapes()
        f = terra("""
        terra throughiface(d : &Iface) : float return d:area() end
        terra f(l : float) : float
          var s : Square
          s:init()
          s.len = l
          var d : &Iface = &s
          return throughiface(d)
        end
        """, env={"Square": Square, "Iface": Area.type})
        assert f.f(6.0) == 36.0

    def test_invalid_downcast_rejected(self):
        from repro.errors import TypeCheckError
        _, Shape, Square = make_shapes()
        fn = terra("""
        terra f(p : &Shape) : &Square
          return p     -- parent to child is not implicit
        end
        """, env={"Square": Square, "Shape": Shape})
        with pytest.raises(TypeCheckError):
            fn.ensure_typechecked()


class TestAcrossBackends:
    def test_a_vtable_filled_on_the_interpreter_is_called_from_c(
            self, cbackend):
        """The interpreter fills the vtable with addresses C can call —
        trampolines to the methods' C entries — so the C entry run after
        it dispatches through the same vtable."""
        _, Shape, Square = make_shapes()
        f = terra("""
        terra callit(p : &Shape) : float return p:area() end
        terra f(l : float) : float
          var s : Square
          s:init()
          s.len = l
          return callit(&s)
        end
        """, env={"Square": Square, "Shape": Shape})
        assert f.f.compile("interp")(3.0) == 9.0
        assert f.f.compile("c")(4.0) == 16.0
        assert f.f.compile("interp")(5.0) == 25.0

    def test_a_class_gives_the_same_across_the_tier_up(self, cbackend):
        from repro.exec import TieredPolicy, policy_override
        _, Shape, Square = make_shapes()
        f = terra("""
        terra callit(p : &Shape) : float return p:area() end
        terra f(l : float) : float
          var s : Square
          s:init()
          s.len = l
          return callit(&s)
        end
        """, env={"Square": Square, "Shape": Shape})
        with policy_override(TieredPolicy(threshold=2, sync=True)):
            assert [f.f(float(n)) for n in range(1, 5)] == [1, 4, 9, 16]
        assert f.f.dispatcher.tier_info()["tier"] == 1

    def test_a_method_returning_a_struct_across_the_tier_up(self, cbackend):
        """A method that returns a struct by value has no trampoline
        (ctypes cannot return a struct from one), so the vtable the
        interpreter fills holds its C entry, which C calls after the
        tier-up."""
        from repro.exec import TieredPolicy, policy_override
        Pair = struct("struct Pair { a : float, b : float }")
        Two = J.interface({"two": ([], Pair)}, name="Two")
        Shape = struct("struct Shape { tag : int }")
        terra("terra Shape:two() : Pair return Pair {0.f, 0.f} end",
              env={"Shape": Shape, "Pair": Pair})
        Square = struct("struct Square { len : float }")
        J.extends(Square, Shape)
        J.implements(Square, Two)
        terra("terra Square:two() : Pair "
              "return Pair {self.len, self.len * self.len} end",
              env={"Square": Square, "Pair": Pair})
        f = terra("""
        terra callit(p : &Shape) : float var q = p:two() return q.a + q.b end
        terra f(l : float) : float
          var s : Square
          s:init()
          s.len = l
          return callit(&s)
        end
        """, env={"Square": Square, "Shape": Shape})
        with policy_override(TieredPolicy(threshold=2, sync=True)):
            assert [f.f(float(n)) for n in range(1, 5)] == [2, 6, 12, 20]
        assert f.f.dispatcher.tier_info()["tier"] == 1


class TestLayout:
    def test_parent_prefix(self):
        """The paper: the beginning of each object has the same layout as
        an object of the parent."""
        _, Shape, Square = make_shapes()
        Square.complete()
        Shape.complete()
        Shape.layout()
        Square.layout()
        assert Square.offsetof("__vtable") == Shape.offsetof("__vtable") == 0
        assert Square.offsetof("tag") == Shape.offsetof("tag")

    def test_interface_pointer_field_present(self):
        Area, _, Square = make_shapes()
        Square.complete()
        assert Square.has_entry(f"__if_{Area.name}")

    def test_finalize_runs_via_typechecker(self):
        """__finalizelayout is triggered by type *use*, not manually."""
        _, _, Square = make_shapes()
        assert not Square._finalized
        terra("terra g() : int return [int](sizeof(Square)) end",
              env={"Square": Square})()
        assert Square._finalized


class TestInheritanceChains:
    def test_grandparent(self):
        A = struct("struct A_ { x : int }")
        terra("terra A_:get() : int return self.x end", env={"A_": A})
        B = struct("struct B_ { y : int }")
        J.extends(B, A)
        C = struct("struct C_ { z : int }")
        J.extends(C, B)
        terra("terra C_:get() : int return self.x + self.z end",
              env={"C_": C})
        f = terra("""
        terra callit(a : &A_) : int return a:get() end
        terra f() : int
          var c : C_
          c:init()
          c.x = 10
          c.z = 5
          return callit(&c)
        end
        """, env={"C_": C, "A_": A})
        assert f.f() == 15

    def test_inherited_method_callable_on_child(self):
        A = struct("struct A2 { x : int }")
        terra("terra A2:twice() : int return self.x * 2 end", env={"A2": A})
        B = struct("struct B2 { }")
        J.extends(B, A)
        f = terra("""
        terra f() : int
          var b : B2
          b:init()
          b.x = 21    -- inherited field
          return b:twice()
        end
        """, env={"B2": B})
        assert f() == 42
