"""Quote tests: creation, splicing, and the operator-overloading API
DSLs build expression trees with."""

import pytest

from repro import Quote, expr, int_, quote_, symbol, terra
from repro.errors import SpecializeError


class TestCreation:
    def test_expression_quote(self):
        q = expr("1 + 2")
        assert q.kind == Quote.EXPRESSION

    def test_statements_quote(self):
        q = quote_("var x = 1\nvar y = 2")
        assert q.kind == Quote.STATEMENTS

    def test_in_clause_makes_expression_splicable(self):
        q = quote_("var x = 21 in x * 2")
        f = terra("terra f() : int return [q] end")
        assert f() == 42

    def test_statements_quote_without_in_rejected_as_expr(self):
        q = quote_("var x = 1")
        with pytest.raises(SpecializeError):
            terra("terra f() : int return [q] end")

    def test_expression_quote_as_statement(self):
        g = terra("terra g(x : int) : int return x end")
        q = expr("g(1)")
        f = terra("""
        terra f() : int
          [q]
          return 2
        end
        """)
        assert f() == 2


class TestOperatorOverloading:
    def test_arithmetic(self):
        a, b = expr("10"), expr("4")
        f = terra("terra f() : int return [a + b] - [a - b] + [a * b] end")
        assert f() == 14 - 6 + 40

    def test_reflected_ops_with_python_numbers(self):
        a = expr("10")
        f = terra("terra f() : int return [1 + a] + [a - 1] + [2 * a] end")
        assert f() == 11 + 9 + 20

    def test_division(self):
        a = expr("9.0")
        f = terra("terra f() : double return [a / 2] end")
        assert f() == 4.5

    def test_negation(self):
        a = expr("5")
        f = terra("terra f() : int return [-a] end")
        assert f() == -5

    def test_comparisons_via_methods(self):
        a, b = expr("1"), expr("2")
        f = terra("terra f() : bool return [a.lt(b)] end")
        assert f() is True

    def test_select_and_index(self):
        from repro import struct
        S = struct("struct QS { v : int }")
        s_sym = symbol(S, "s")
        get_v = Quote.wrap(s_sym).select("v")
        f = terra("""
        terra f() : int
          var [s_sym] = QS { 33 }
          return [get_v]
        end
        """, env={"QS": S, "s_sym": s_sym, "get_v": get_v})
        assert f() == 33

    def test_call_through_quote(self):
        g = terra("terra g(x : int) : int return x * 3 end")
        call = Quote.wrap(g)(expr("7"))
        f = terra("terra f() : int return [call] end")
        assert f() == 21

    def test_wrap_python_values(self):
        assert Quote.wrap(5).kind == Quote.EXPRESSION
        assert Quote.wrap(expr("1")) is not None

    def test_cast_builder(self):
        from repro import int64
        q = expr("300").cast(int64)
        f = terra("terra f() : int64 return [q] end")
        assert f() == 300


class TestSpliceIsolation:
    def test_same_quote_twice_no_aliasing(self):
        """Splicing one quote into two positions must not alias state
        between the copies."""
        q = quote_("var t = 1 in t + 1")
        f = terra("terra f() : int return [q] * 100 + [q] end")
        assert f() == 202

    def test_quote_spliced_into_two_functions(self):
        q = quote_("var n = 5 in n")
        f = terra("terra f() : int return [q] end")
        g = terra("terra g() : int return [q] + 1 end")
        assert f() == 5 and g() == 6

    def test_variable_outside_scope_rejected(self):
        """A quote referencing a function's local, spliced into another
        function, is a scope error at typecheck time."""
        from repro.errors import TypeCheckError
        s = symbol(int_, "loner")
        q = Quote.wrap(s)
        bad = terra("terra bad() : int return [q] end")
        with pytest.raises(TypeCheckError, match="scope"):
            bad.ensure_typechecked()

    def test_extruded_parameter_is_reported_at_the_splice(self):
        """A parameter quote saved from ``f``'s escape and spliced into
        ``g`` is rejected at the splice, with its line, column and caret."""
        from repro.errors import TypeCheckError
        saved = []
        terra("terra f(x : int) : int return [saved.append(x) or x] end",
              env={"saved": saved})
        g = terra("terra g(y : int) : int\n  return [saved[0]] + y\nend",
                  env={"saved": saved})
        with pytest.raises(TypeCheckError, match="not in scope") as info:
            g.ensure_typechecked()
        loc = info.value.location
        assert (loc.filename, loc.line) == ("<terra>", 2)
        assert loc.line_text[loc.column - 1:].startswith("saved[0]]")
        assert str(info.value).startswith(f"<terra>:2:{loc.column}: ")
        assert str(info.value).splitlines()[-1].strip() == "^"

    def test_extruded_operator_quote_is_reported_at_each_splice(self):
        """``x + 1``, built in Python from a parameter quote saved in
        ``f``, is rejected where it is spliced, in each function it is
        spliced into; the shared quote stays unlocated."""
        from repro.errors import TypeCheckError
        saved = []
        terra("terra f(x : int) : int return [saved.append(x + 1) or x] end",
              env={"saved": saved})
        q = saved[0]
        g = terra("terra g(y : int) : int\n  return [q] + y\nend",
                  env={"q": q})
        h = terra("terra h(y : int) : int\n  var z = y\n"
                  "  return z * [q]\nend", env={"q": q})
        columns = set()
        for fn, line in ((g, 2), (h, 3)):
            with pytest.raises(TypeCheckError, match="not in scope") as info:
                fn.ensure_typechecked()
            loc = info.value.location
            assert (loc.filename, loc.line) == ("<terra>", line)
            assert loc.line_text[loc.column - 1:].startswith("q]")
            assert str(info.value).startswith(f"<terra>:{line}:{loc.column}: ")
            assert str(info.value).splitlines()[-1].strip() == "^"
            columns.add(loc.column)
        assert len(columns) == 2
        assert q.tree.location is None
        assert q.tree.lhs.location is None and q.tree.rhs.location is None


# -- staging violations: each rejected with its class, at its location --------

def _extruded():
    saved = []
    terra("terra f(x : int) : int return [saved.append(x) or x] end",
          env={"saved": saved})
    return saved[0]


def _outside_binder():
    s = symbol(int_, "s")
    return quote_("do var [s] = 1 end", env={"s": s}), s


VIOLATIONS = [
    # id, error class, body of g, env, where the location points
    ("extrusion", "TypeCheckError", "return [q] + y",
     lambda: {"q": _extruded()}, "q]"),
    ("symbol-outside-binder", "TypeCheckError", "[b]\n  return [s] + y",
     lambda: dict(zip("bs", _outside_binder())), "s]"),
    ("statements-quote-as-expression", "SpecializeError", "return [q] + y",
     lambda: {"q": quote_("var z = 1")}, "q]"),
    ("escape-returns-non-terra-value", "SpecializeError", "return [v] + y",
     lambda: {"v": object()}, "v]"),
    ("type-as-value", "TypeCheckError", "return int + y",
     lambda: {}, "int +"),
]


@pytest.mark.parametrize("cls,body,env,where",
                         [row[1:] for row in VIOLATIONS],
                         ids=[row[0] for row in VIOLATIONS])
def test_staging_violations_are_located(cls, body, env, where):
    """A staged program that breaks a level or scope rule fails at
    specialization or typechecking with its own error class, located
    where the violation is written (``<terra>:line:col`` and a caret),
    whichever stage finds it."""
    import repro.errors
    lines = ["terra g(y : int) : int", *f"  {body}".splitlines(), "end"]
    with pytest.raises(getattr(repro.errors, cls)) as info:
        terra("\n".join(lines), env=env()).ensure_typechecked()
    loc = info.value.location
    assert loc is not None and loc.filename == "<terra>"
    assert loc.line_text[loc.column - 1:].startswith(where)
    assert str(info.value).startswith(f"<terra>:{loc.line}:{loc.column}: ")
    assert str(info.value).splitlines()[-1].strip() == "^"
