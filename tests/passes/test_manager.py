"""PassManager behavior: ordering, switches, caching, telemetry, dumps."""

import pytest

from repro import terra
from repro.core import tast
from repro.errors import CompileError, ConfigError
from repro.passes import (
    LEVEL_PASSES,
    PIPELINE_CANON,
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
        for expected in ("fold", "simplify", "dce", "vectorize", "verify"):
            assert expected in names
        assert "licm" not in names     # gcc -O3 hoists invariants

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
        monkeypatch.setenv("REPRO_TERRA_DISABLE_PASSES", "simplify, dce")
        manager = PassManager(["fold", "simplify", "dce"])
        assert manager.pass_names() == ["fold"]

    @pytest.mark.parametrize("var, value", [
        ("REPRO_TERRA_DISABLE_PASSES", "lcim"),
        ("REPRO_TERRA_DISABLE_PASSES", "dce,all"),
        ("REPRO_TERRA_DUMP_IR", "nosuchpass"),
    ])
    def test_unknown_pass_name_is_an_error(self, monkeypatch, var, value):
        monkeypatch.setenv(var, value)
        with pytest.raises(ConfigError, match=f"{var}.*registered:.*dce"):
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
    def test_three_levels(self):
        """0 is raw, 1 is what ships, 2 adds the opt-in vectorizer."""
        assert LEVEL_PASSES == {
            PIPELINE_NONE: (),
            PIPELINE_CANON: ("fold", "simplify", "dce"),
            PIPELINE_VEC: ("fold", "simplify", "vectorize", "dce"),
        }

    def test_resolve_default_is_canon(self):
        assert resolve_level(None) == PIPELINE_CANON
        assert PassManager().pass_names() == ["fold", "simplify", "dce"]

    def test_resolve_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_TERRA_PIPELINE", "0")
        assert resolve_level(None) == PIPELINE_NONE
        assert resolve_level(PIPELINE_CANON) == PIPELINE_NONE

    def test_resolve_env_invalid(self, monkeypatch):
        monkeypatch.setenv("REPRO_TERRA_PIPELINE", "fast")
        with pytest.raises(ConfigError, match="REPRO_TERRA_PIPELINE"):
            resolve_level(None)

    def test_resolve_env_vec_level(self, monkeypatch):
        monkeypatch.setenv("REPRO_TERRA_PIPELINE", "2")
        assert resolve_level(None) == PIPELINE_VEC

    @pytest.mark.parametrize("value", ["3", "-1", "4"])
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
        assert resolve_level(None) == PIPELINE_VEC


def count(tree):
    return sum(1 for _ in tast.walk(tree))


def pass_runs():
    from repro.buildd import get_service
    return {name: row["runs"]
            for name, row in get_service().stats.snapshot()["passes"].items()}


class TestCaching:
    def test_pipeline_runs_once(self):
        fn = typed_fn("terra f(x : int) : int return x + (1 + 1) end")
        body = pipelined_body(fn.typed, PIPELINE_CANON)
        assert count(body) < count(fn.typed.body)
        # re-entry at the same level is the same tree; another its own
        assert pipelined_body(fn.typed, PIPELINE_CANON) is body
        assert pipelined_body(fn.typed, PIPELINE_VEC) is not body

    def test_level_zero_is_identity(self):
        fn = typed_fn("terra f(x : int) : int return x + (1 + 1) end")
        before = count(fn.typed.body)
        with pipeline_override(PIPELINE_NONE):
            body = pipelined_body(fn.typed)
        assert body is fn.typed.body
        assert count(fn.typed.body) == before

    def test_second_backend_runs_no_pass(self, cbackend, monkeypatch):
        """Both backends read the level that ships: compiling on the
        interpreter first and gcc second runs no pass the second time, and
        the C emitter reads the very body the interpreter walked."""
        from repro.backend.c.emit import CEmitter
        from repro.backend.interp.machine import Machine
        fn = typed_fn("terra f(x : int) : int return x + 2 * 3 end")
        walked, emitted = [], []
        exec_block, fn_body = Machine.exec_block, CEmitter._fn_body

        def walking(self, block, frame):
            walked.append(block)
            exec_block(self, block, frame)

        def emitting(self, f):
            emitted.append(fn_body(self, f))
            return emitted[-1]

        monkeypatch.setattr(Machine, "exec_block", walking)
        monkeypatch.setattr(CEmitter, "_fn_body", emitting)
        assert fn.compile("interp")(1) == 7
        runs = pass_runs()
        assert fn.compile(cbackend)(1) == 7
        assert pass_runs() == runs
        body = pipelined_body(fn.typed, PIPELINE_CANON)
        assert emitted and all(b is body for b in [walked[0], *emitted])

    def test_pipelined_body_serves_lower_levels_after_higher(self):
        """Once a level is built, a lower-level request is derived from
        the typechecked tree, not served the higher level's tree."""
        fn = typed_fn("terra f(x : int) : int return x + (1 + 1) end")
        raw_count = count(fn.typed.body)
        assert count(pipelined_body(fn.typed, PIPELINE_CANON)) < raw_count
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

    def test_backends_read_the_shipped_level(self):
        """One level for both: the oracle checks the IR that C ships, and
        scalar optimization is gcc -O3's job.  Neither backend overrides
        ``Backend.pipeline_level``."""
        from repro.backend.base import Backend, get_backend
        assert get_backend("interp").pipeline_level \
            == get_backend("c").pipeline_level == PIPELINE_CANON
        for name in ("interp", "c"):
            assert "pipeline_level" not in vars(type(get_backend(name)))
        assert Backend.pipeline_level == PIPELINE_CANON

    def test_emitted_c_independent_of_compile_order(self):
        """The C backend gets the CANON tree even when the interpreter
        compiled the function first and the vectorized level was built:
        equivalent stagings emit byte-identical C in any compile order,
        so the buildd artifact cache hits deterministically."""
        src = """
        terra f(a : int, n : int) : int
          var s = 0
          for i = 0, n do s = s + a * 3 end
          return s
        end
        """
        c_first = typed_fn(src).get_c_source()
        fn = typed_fn(src)
        fn.get_optimized_ir(PIPELINE_VEC)
        assert fn.compile("interp")(2, 4) == 24
        assert fn.get_c_source() == c_first

    @pytest.mark.parametrize("door", ["get_optimized_ir", "c compile"])
    def test_interp_walks_its_own_level_whatever_was_built_first(
            self, door, monkeypatch, request):
        """The interpreter reads CANON — entry and callee — even after
        something else asked for the vectorized tree."""
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
            cbackend = request.getfixturevalue("cbackend")
            f.ensure_typechecked()      # no structural-memo hit: link it
            with pipeline_override(PIPELINE_VEC):
                f.compile(cbackend)
        walked, exec_block = [], Machine.exec_block

        def recording(self, block, frame):
            walked.append(block)
            exec_block(self, block, frame)

        monkeypatch.setattr(Machine, "exec_block", recording)
        x, y = np.ones(19, np.float32), np.ones(19, np.float32)
        f.compile("interp")(19, x, y)
        assert y.tolist() == [5.0] * 19
        for fn in (f, axpy):
            body = pipelined_body(fn.typed, PIPELINE_CANON)
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
