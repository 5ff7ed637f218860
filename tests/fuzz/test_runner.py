"""Differential-runner tests: the harness survives everything the
programs do, and child outcomes compare the way the contract says."""

import math

from repro.fuzz import FuzzProgram, run_differential
from repro.fuzz.child import (decode_args, encode_args, encode_result,
                              _run_program)
from repro.fuzz.runner import Execution, executions_diverge, run_program

SMALL_CONFIGS = [("interp", 1), ("c", 1)]


class TestEncoding:
    def test_float_results_compare_bitwise(self):
        assert encode_result(0.0) != encode_result(-0.0)
        assert encode_result(1.5) == encode_result(1.5)

    def test_nan_payloads_canonicalize(self):
        assert encode_result(float("nan")) == ["float", "nan"]

    def test_bool_is_not_int(self):
        assert encode_result(True) != encode_result(1)

    def test_args_roundtrip_special_floats(self):
        args = (1, True, math.inf, -0.0, math.nan, -2**63)
        back = decode_args(encode_args(args))
        assert back[0] == 1 and back[1] is True
        assert back[2] == math.inf
        assert math.copysign(1.0, back[3]) == -1.0
        assert math.isnan(back[4])
        assert back[5] == -2**63


class TestChildExecutor:
    def test_runs_program_in_process(self):
        out = _run_program(
            "terra f(x : int) : int return x + 1 end", "f", [(1,), (2,)],
            "interp")
        assert out == {"outcomes": [{"ok": ["int", 2]}, {"ok": ["int", 3]}]}

    def test_trap_is_an_outcome_not_an_escape(self):
        out = _run_program(
            "terra f(x : int) : int return x % 0 end", "f", [(1,)],
            "interp")
        assert out["outcomes"] == [{"trap": "integer modulo by zero"}]

    def test_compile_failure_is_fatal_outcome(self):
        out = _run_program("terra f( : int", "f", [(1,)], "interp")
        assert "fatal" in out

    def test_c_configs_stage_twice_through_the_structural_memo(self,
                                                              cbackend):
        src = "terra f(x : int) : int return x * 5 end"
        for backend in ("c", "sched"):
            out = _run_program(src, "f", [(2,)], backend)
            assert out == {"outcomes": [{"ok": ["int", 10]}], "memo": "hits"}
        assert "memo" not in _run_program(src, "f", [(2,)], "tiered")

    def test_a_second_definition_that_misses_is_a_finding(self, monkeypatch,
                                                          cbackend):
        from repro.backend.c.runtime import CBackend
        monkeypatch.setattr(CBackend, "memoized_unit",
                            lambda self, fn: ("miss", None, None))
        out = _run_program("terra f(x : int) : int return x end", "f",
                           [(2,)], "c")
        assert out["fatal"][0] == "MemoDivergence"


class TestRunProgram:
    """Single-program isolated execution (the minimizer/corpus path)."""

    def test_agreeing_program(self, cbackend):
        p = FuzzProgram(seed=0, index=0,
                        source="terra f(x : int) : int return x * 3 end",
                        entry="f", argtypes=["int32"], argsets=[(5,), (-2,)])
        execs = run_program(p, configs=SMALL_CONFIGS)
        assert len(execs) == 2
        assert not executions_diverge(execs)
        assert execs[0].outcome["outcomes"][0] == {"ok": ["int", 15]}

    def test_trapping_program_does_not_kill_harness(self, cbackend):
        # the original bug 1 reproducer: SIGFPE from gcc-compiled % 0
        p = FuzzProgram(
            seed=0, index=0,
            source="terra f(a : int, b : int) : int return a % b end",
            entry="f", argtypes=["int32", "int32"], argsets=[(5, 0)])
        execs = run_program(p, configs=SMALL_CONFIGS)
        assert not executions_diverge(execs)
        for ex in execs:
            assert ex.outcome["outcomes"][0] == \
                {"trap": "integer modulo by zero"}


class TestDivergenceDetection:
    def test_different_outcomes_diverge(self):
        a = Execution("interp", 2, {"outcomes": [{"ok": ["int", 1]}]})
        b = Execution("c", 1, {"outcomes": [{"ok": ["int", 2]}]})
        assert executions_diverge([a, b])

    def test_same_outcomes_agree(self):
        a = Execution("interp", 2, {"outcomes": [{"trap": "x"}]})
        b = Execution("c", 1, {"outcomes": [{"trap": "x"}]})
        assert not executions_diverge([a, b])

    def test_what_the_memo_said_is_not_part_of_the_outcome(self):
        a = Execution("interp", 2, {"outcomes": [{"ok": ["int", 1]}]})
        b = Execution("c", 1, {"outcomes": [{"ok": ["int", 1]}],
                               "memo": "hits"})
        assert not executions_diverge([a, b])

    def test_crash_counts_as_divergence_vs_value(self):
        a = Execution("interp", 2, {"outcomes": [{"ok": ["int", 1]}]})
        b = Execution("c", 1, {"crash": -8})
        assert executions_diverge([a, b])


class TestRunDifferential:
    def test_smoke(self, cbackend):
        """A small end-to-end run: subprocess children on both backends,
        zero divergences expected (the fixed-seed CI run does 300)."""
        report = run_differential(11, 4, configs=SMALL_CONFIGS,
                                  record_stats=False)
        assert report.ok, report.summary()
        assert report.count == 4
        assert "OK" in report.summary()
        assert report.memo == {"hits": 4}   # the one C config, every program

    def test_stats_wiring(self):
        """The runner writes its totals to the process registry, which the
        buildd snapshot reports beside its own counters."""
        from repro.buildd import get_service
        stats = get_service().stats
        before = stats.snapshot()["fuzz"]
        report = run_differential(11, 1, configs=[("interp", 0)])
        assert report.ok, report.summary()
        after = stats.snapshot()["fuzz"]
        assert after["programs"] == before["programs"] + 1
        assert after["divergences"] == before["divergences"]
