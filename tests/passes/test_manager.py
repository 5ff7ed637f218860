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
    resolve_level,
    run_pipeline,
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


class TestCaching:
    def test_pipeline_runs_once(self):
        fn = typed_fn("terra f(x : int) : int return x + (1 + 1) end")
        assert fn.typed.pipeline_level == 0
        assert run_pipeline(fn.typed, PIPELINE_FULL) is True
        assert fn.typed.pipeline_level == PIPELINE_FULL
        # re-entry at the same or lower level is a no-op
        assert run_pipeline(fn.typed, PIPELINE_FULL) is False
        assert run_pipeline(fn.typed, PIPELINE_CANON) is False

    def test_level_upgrades(self):
        fn = typed_fn("terra f(x : int) : int return x + (1 + 1) end")
        assert run_pipeline(fn.typed, PIPELINE_CANON) is True
        assert fn.typed.pipeline_level == PIPELINE_CANON
        assert run_pipeline(fn.typed, PIPELINE_FULL) is True
        assert fn.typed.pipeline_level == PIPELINE_FULL

    def test_level_zero_is_identity(self):
        fn = typed_fn("terra f(x : int) : int return x + (1 + 1) end")
        before = sum(1 for _ in tast.walk(fn.typed.body))
        with pipeline_override(PIPELINE_NONE):
            assert run_pipeline(fn.typed) is False
        assert sum(1 for _ in tast.walk(fn.typed.body)) == before
        assert fn.typed.pipeline_level == 0

    def test_compile_shares_pipelined_tree(self):
        """Both backends see the same canonicalized tree: compiling on the
        interpreter first and gcc second does not re-run the passes."""
        fn = typed_fn("terra f(x : int) : int return x + 2 * 3 end")
        assert fn.compile("interp")(1) == 7
        level_after_interp = fn.typed.pipeline_level
        body_ids = [id(s) for s in fn.typed.body.statements]
        assert fn.compile("c")(1) == 7
        assert fn.typed.pipeline_level == level_after_interp == PIPELINE_FULL
        assert [id(s) for s in fn.typed.body.statements] == body_ids

    def test_pipelined_body_serves_lower_levels_after_full(self):
        """Once the in-place tree is at FULL, a lower-level request is
        rebuilt from the pre-advance snapshot, not served the FULL tree."""
        from repro.passes import pipelined_body
        fn = typed_fn("terra f(x : int) : int return x + (1 + 1) end")
        raw_count = sum(1 for _ in tast.walk(fn.typed.body))
        assert run_pipeline(fn.typed, PIPELINE_FULL) is True
        assert sum(1 for _ in tast.walk(fn.typed.body)) < raw_count
        raw = pipelined_body(fn.typed, PIPELINE_NONE)
        assert sum(1 for _ in tast.walk(raw)) == raw_count
        # the in-place tree and its level are untouched by the read
        assert fn.typed.pipeline_level == PIPELINE_FULL


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
        assert fn.typed.pipeline_level == PIPELINE_FULL
        assert fn.get_c_source() == c_first

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
