"""Corpus replay: every divergence the fuzzer ever found stays fixed.

Each ``tests/fuzz/corpus/*.json`` entry is a minimized reproducer for a
real backend divergence (see the ``note`` field in each file).  The
in-process replay runs every entry on both backends at all three
pipeline levels and asserts bit-identical outcomes; one subprocess-based
test also exercises the crash-isolated replay path the CLI uses.
"""

import json
import os

import pytest

from repro import get_backend, terra
from repro.errors import TrapError
from repro.fuzz import load_corpus
from repro.fuzz.child import encode_result
from repro.fuzz.corpus import load_entry, replay_entry, save_entry
from repro.fuzz.gen import FuzzProgram, fuzz_env
from repro.fuzz.runner import executions_diverge

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "corpus")
CORPUS = load_corpus(CORPUS_DIR)


def _outcomes(program, backend_name):
    """Run one corpus program in-process; canonical outcome list."""
    ns = terra(program.source, env=fuzz_env())
    try:
        fn = ns[program.entry]
    except TypeError:
        fn = ns
    handle = fn.compile(get_backend(backend_name))
    out = []
    for args in program.argsets:
        try:
            out.append({"ok": encode_result(handle(*args))})
        except TrapError as exc:
            out.append({"trap": str(exc)})
    return out


def _tiered_outcomes(program):
    """Run one corpus program under the tiered policy, twice over its
    argsets: a threshold of 2 with synchronous tier-ups guarantees the
    interp→C transition happens in the middle of the first pass, and the
    second pass runs entirely on tier 1."""
    from repro.exec import TieredPolicy, policy_override
    ns = terra(program.source, env=fuzz_env())
    try:
        fn = ns[program.entry]
    except TypeError:
        fn = ns
    out = []
    with policy_override(TieredPolicy(threshold=2, sync=True)):
        for args in list(program.argsets) * 2:
            try:
                out.append({"ok": encode_result(fn(*args))})
            except TrapError as exc:
                out.append({"trap": str(exc)})
    return out


def test_corpus_is_not_empty():
    assert len(CORPUS) >= 10


@pytest.mark.parametrize("name,program", CORPUS,
                         ids=[name for name, _ in CORPUS])
@pytest.mark.parametrize("level", ["0", "1", "2"])
def test_replay_in_process(monkeypatch, name, program, level, cbackend):
    """Both backends agree bitwise on every entry at every pipeline level."""
    monkeypatch.setenv("REPRO_TERRA_PIPELINE", level)
    assert _outcomes(program, "c") == _outcomes(program, "interp")


@pytest.mark.parametrize("name,program", CORPUS,
                         ids=[name for name, _ in CORPUS])
@pytest.mark.parametrize("level", ["0", "1", "2"])
def test_replay_tiered_in_process(monkeypatch, name, program, level):
    """Every corpus entry stays bit-identical when executed through the
    tiered policy (forced mid-run tier-up) at every pipeline level."""
    monkeypatch.setenv("REPRO_TERRA_PIPELINE", level)
    assert _tiered_outcomes(program) == _outcomes(program, "interp") * 2


def test_replay_tiered_isolated_subprocess():
    """The crash-isolated child also supports --backend tiered: the
    entry that used to SIGFPE the host must trap identically across the
    tier transition."""
    program = load_entry(os.path.join(CORPUS_DIR, "div-zero-trap.json"))
    execs = replay_entry(program, configs=[("interp", 1), ("tiered", 1)])
    assert not executions_diverge(execs), \
        [(e.config, e.outcome) for e in execs]


def test_replay_isolated_subprocess(cbackend):
    """The CLI's crash-isolated replay path, on the entry that used to
    SIGFPE the host."""
    program = load_entry(os.path.join(CORPUS_DIR, "mod-zero-trap.json"))
    execs = replay_entry(program, configs=[("interp", 1), ("c", 1)])
    assert not executions_diverge(execs), \
        [(e.config, e.outcome) for e in execs]
    assert execs[0].outcome["outcomes"][0] == \
        {"trap": "integer modulo by zero"}


def test_save_load_roundtrip(tmp_path):
    program = FuzzProgram(
        seed=3, index=9,
        source="terra f(x : double) : double return -x end",
        entry="f", argtypes=["double"],
        argsets=[(float("inf"),), (-0.0,), (float("nan"),)])
    path = save_entry(str(tmp_path), "round trip!", program, note="n")
    assert os.path.basename(path) == "round-trip.json"
    back = load_entry(path)
    assert back.source == program.source
    assert back.entry == "f"
    assert back.argsets[0][0] == float("inf")
    assert str(back.argsets[1][0]) == "-0.0"
    assert back.argsets[2][0] != back.argsets[2][0]   # nan
    # strict JSON on disk (no Infinity/NaN literals)
    with open(path) as fh:
        json.loads(fh.read())
