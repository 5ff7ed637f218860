"""PassManager behavior: ordering, switches, caching, telemetry, dumps."""

import pytest

from repro import terra
from repro.core import tast
from repro.errors import CompileError, ConfigError
from repro.passes import (
    LEVEL_PASSES,
    PIPELINE_CANON,
    PIPELINE_FULL,
    PIPELINE_NONE,
    PIPELINE_VEC,
    PassManager,
    available_passes,
    create_pass,
    pipeline_override,
    pipelined_body,
    resolve_level,
)


def typed_fn(source, env=None):
    fn = terra(source, env=env or {})
    fn.ensure_typechecked()
    return fn


class TestRegistry:
    def test_all_passes_registered(self):
        names = available_passes()
        for expected in ("fold", "simplify", "dce", "licm", "verify"):
            assert expected in names

    def test_unknown_pass_rejected(self):
        with pytest.raises(CompileError, match="unknown IR pass"):
            create_pass("vectorize-everything")

    def test_level_passes_are_registered(self):
        for level, names in LEVEL_PASSES.items():
            for name in names:
                assert name in available_passes(), (level, name)


class TestManager:
    def test_runs_in_order_and_records(self):
        fn = typed_fn("terra f(x : int) : int return (x + 0) + (2 * 3) end")
        manager = PassManager(["fold", "simplify", "dce"], verify=True)
        records = manager.run(fn.typed)
        assert [r["pass"] for r in records] == ["fold", "simplify", "dce"]
        assert all(r["seconds"] >= 0 for r in records)
        assert records[0]["changed"]  # 2 * 3 folded

    @pytest.mark.parametrize("source", [
        "terra f(x : int) : int return x + 2 * 3 end",
        "terra f(x : int) : int if false then x = 1 end return x end",
        # the if statement survives; only its chain is cut
        """terra f(x : int) : int
             if x > 0 then x = 1 elseif true then x = 2 else x = 3 end
             return x
           end""",
        "terra f(x : int) : int return x return 7 end",
    ])
    def test_fold_reports_changed_where_it_rewrote(self, source):
        """True for a tree with something to fold, False on the result —
        and the ``pass:fold`` span and ``last_run`` say the same."""
        from repro import trace
        fn = typed_fn(source)
        manager = PassManager(["fold"])
        trace.clear()
        trace.enable()
        try:
            first = manager.run(fn.typed)[0]["changed"]
            assert manager.last_run[0]["changed"] is first
            second = manager.run(fn.typed)[0]["changed"]
            assert manager.last_run[0]["changed"] is second
        finally:
            trace.disable()
        spans = [e.args["changed"] for e in trace.events()
                 if e.name == "pass:fold"]
        trace.clear()
        assert (first, second) == (True, False)
        assert spans == [True, False]

    def test_disable_method(self):
        manager = PassManager(["fold", "simplify", "dce"])
        manager.disable("simplify")
        assert manager.pass_names() == ["fold", "dce"]

    def test_disable_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_TERRA_DISABLE_PASSES", "licm, dce")
        manager = PassManager(["fold", "simplify", "licm", "dce"])
        assert manager.pass_names() == ["fold", "simplify"]

    @pytest.mark.parametrize("var, value", [
        ("REPRO_TERRA_DISABLE_PASSES", "lcim"),
        ("REPRO_TERRA_DISABLE_PASSES", "licm,all"),
        ("REPRO_TERRA_DUMP_IR", "nosuchpass"),
    ])
    def test_unknown_pass_name_is_an_error(self, monkeypatch, var, value):
        monkeypatch.setenv(var, value)
        with pytest.raises(ConfigError, match=f"{var}.*registered:.*licm"):
            PassManager(["fold"])

    def test_dump_all_is_valid(self, monkeypatch):
        monkeypatch.setenv("REPRO_TERRA_DUMP_IR", "all")
        assert PassManager(["fold"]).dump == "all"

    def test_dump_ir(self, monkeypatch, capsys):
        fn = typed_fn("terra f(x : int) : int return x + (1 + 1) end")
        manager = PassManager(["fold"], dump="fold", verify=False)
        manager.run(fn.typed)
        err = capsys.readouterr().err
        assert "IR before pass 'fold'" in err
        assert "IR after pass 'fold'" in err
        assert "terra f" in err

    def test_pass_timing_reaches_buildd_stats(self):
        from repro.buildd import get_service
        fn = typed_fn("terra f(x : int) : int return x + (1 + 1) end")
        PassManager(["fold"]).run(fn.typed)
        snap = get_service().stats.snapshot()
        assert snap["passes"]["fold"]["runs"] >= 1
        assert snap["passes"]["fold"]["seconds"] >= 0


class TestLevels:
    def test_resolve_default_is_full(self):
        assert resolve_level(None) == PIPELINE_FULL

    def test_resolve_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_TERRA_PIPELINE", "1")
        assert resolve_level(None) == PIPELINE_CANON
        assert resolve_level(PIPELINE_FULL) == PIPELINE_CANON

    def test_resolve_env_invalid(self, monkeypatch):
        monkeypatch.setenv("REPRO_TERRA_PIPELINE", "fast")
        with pytest.raises(ConfigError, match="REPRO_TERRA_PIPELINE"):
            resolve_level(None)

    def test_resolve_env_vec_level(self, monkeypatch):
        monkeypatch.setenv("REPRO_TERRA_PIPELINE", "3")
        assert resolve_level(None) == PIPELINE_VEC

    @pytest.mark.parametrize("value", ["5", "-1", "4"])
    def test_resolve_env_out_of_range(self, monkeypatch, value):
        """Out-of-range levels raise like non-integers do, instead of
        silently clamping a typo'd configuration."""
        monkeypatch.setenv("REPRO_TERRA_PIPELINE", value)
        with pytest.raises(ConfigError, match="REPRO_TERRA_PIPELINE"):
            resolve_level(None)

    def test_override_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_TERRA_PIPELINE", "2")
        with pipeline_override(PIPELINE_NONE):
            assert resolve_level(None) == PIPELINE_NONE
        assert resolve_level(None) == PIPELINE_FULL


def count(tree):
    return sum(1 for _ in tast.walk(tree))


class TestCaching:
    def test_pipeline_runs_once(self):
        fn = typed_fn("terra f(x : int) : int return x + (1 + 1) end")
        body = pipelined_body(fn.typed, PIPELINE_FULL)
        assert count(body) < count(fn.typed.body)
        # re-entry at the same level is the same tree; a lower one its own
        assert pipelined_body(fn.typed, PIPELINE_FULL) is body
        assert pipelined_body(fn.typed, PIPELINE_CANON) is not body

    def test_level_upgrades(self):
        fn = typed_fn("terra f(x : int) : int return x + (1 + 1) end")
        canon = pipelined_body(fn.typed, PIPELINE_CANON)
        full = pipelined_body(fn.typed, PIPELINE_FULL)
        assert canon is not full
        assert count(canon) == count(full) < count(fn.typed.body)

    def test_level_zero_is_identity(self):
        fn = typed_fn("terra f(x : int) : int return x + (1 + 1) end")
        before = count(fn.typed.body)
        with pipeline_override(PIPELINE_NONE):
            body = pipelined_body(fn.typed)
        assert body is fn.typed.body
        assert count(fn.typed.body) == before

    def test_compile_shares_pipelined_tree(self):
        """Both backends read the same trees: compiling on the interpreter
        first and gcc second does not re-run the passes."""
        fn = typed_fn("terra f(x : int) : int return x + 2 * 3 end")
        assert fn.compile("interp")(1) == 7
        full = pipelined_body(fn.typed, PIPELINE_FULL)
        body_ids = [id(s) for s in full.statements]
        assert fn.compile("c")(1) == 7
        assert pipelined_body(fn.typed, PIPELINE_FULL) is full
        assert [id(s) for s in full.statements] == body_ids

    def test_pipelined_body_serves_lower_levels_after_full(self):
        """Once FULL is built, a lower-level request is derived from the
        typechecked tree, not served the FULL tree."""
        fn = typed_fn("terra f(x : int) : int return x + (1 + 1) end")
        raw_count = count(fn.typed.body)
        assert count(pipelined_body(fn.typed, PIPELINE_FULL)) < raw_count
        raw = pipelined_body(fn.typed, PIPELINE_NONE)
        assert count(raw) == raw_count


class TestBackendsUsePipeline:
    def test_interp_backend_has_no_private_optimizer(self):
        """Acceptance: the interpreter must obtain IR exclusively through
        the pass manager — no direct optimize_function import."""
        import repro.backend.interp.machine as machine
        path = machine.__file__
        with open(path) as f:
            source = f.read()
        assert "optimize_function" not in source

    def test_backends_declare_pipeline_level(self):
        """The interpreter wants the FULL pipeline (nothing optimizes
        downstream of it); the C backend stops at CANON because gcc -O3
        subsumes LICM and pre-hoisted temps only enlarge the unit."""
        from repro.backend.base import get_backend
        assert get_backend("interp").pipeline_level == PIPELINE_FULL
        assert get_backend("c").pipeline_level == PIPELINE_CANON

    def test_emitted_c_independent_of_compile_order(self):
        """The C backend gets the CANON tree even when the interpreter
        (FULL, including LICM) compiled the function first: equivalent
        stagings emit byte-identical C in any compile order, so the
        buildd artifact cache hits deterministically."""
        src = """
        terra f(a : int, n : int) : int
          var s = 0
          for i = 0, n do s = s + a * 3 end
          return s
        end
        """
        c_first = typed_fn(src).get_c_source()
        fn = typed_fn(src)
        assert fn.compile("interp")(2, 4) == 24
        assert fn.get_c_source() == c_first

    @pytest.mark.parametrize("door", ["get_optimized_ir", "c compile"])
    def test_interp_walks_its_own_level_whatever_was_built_first(
            self, door, monkeypatch):
        """The interpreter declares FULL and reads FULL — entry and callee
        — even after something else asked for the vectorized tree."""
        import numpy as np
        from repro.backend.interp.machine import Machine
        from repro.core import types as T
        fns = terra("""
        terra axpy(n : int64, a : float, x : &float, y : &float) : {}
          for i = 0, n do y[i] = a * x[i] + y[i] end
        end
        terra f(n : int64, x : &float, y : &float) : {}
          for i = 0, n do x[i] = x[i] + 1.0f end
          axpy(n, 2.0f, x, y)
        end
        """, env={})
        f, axpy = fns["f"], fns["axpy"]
        if door == "get_optimized_ir":
            for fn in (f, axpy):
                assert "vload" in fn.get_optimized_ir(PIPELINE_VEC)
        else:
            f.ensure_typechecked()      # no structural-memo hit: link it
            with pipeline_override(PIPELINE_VEC):
                f.compile("c")
        walked, exec_block = [], Machine.exec_block

        def recording(self, block, frame):
            walked.append(block)
            exec_block(self, block, frame)

        monkeypatch.setattr(Machine, "exec_block", recording)
        x, y = np.ones(19, np.float32), np.ones(19, np.float32)
        f.compile("interp")(19, x, y)
        assert y.tolist() == [5.0] * 19
        for fn in (f, axpy):
            body = pipelined_body(fn.typed, PIPELINE_FULL)
            assert any(block is body for block in walked)
        for block in walked:
            assert not any(
                isinstance(getattr(node, "type", None), T.VectorType)
                for node in tast.walk(block))

    def test_emitted_c_reflects_pipeline(self):
        fn = typed_fn("terra f(x : int) : int return x + 2 * 3 end",
                      env={})
        source = fn.get_c_source()
        assert "6" in source          # 2 * 3 folded before emission
        assert "2 * 3" not in source

    def test_get_optimized_ir(self):
        fn = typed_fn("terra f(x : int) : int return (x + 0) + 2 * 3 end")
        text = fn.get_optimized_ir()
        assert "terra f" in text
        assert "6" in text and "2 * 3" not in text
