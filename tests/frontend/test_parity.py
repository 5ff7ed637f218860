"""Frontend parity: the string and decorator frontends must be
indistinguishable downstream of ``TerraFunction.define``.

Two assertions per corpus kernel (see :mod:`tests.frontend.kernels`):

* **IR parity** — both frontends typecheck to the *same* typed IR at
  every pipeline level, compared as prettyprinted text after symbol-id
  normalization (symbols are globally unique, so raw names differ by a
  counter; nothing else may).
* **Result parity** — both produce bit-identical results on the interp
  and C backends at pipeline levels 0–2 (fresh functions per
  configuration: a function keeps one handle per backend).

Both backends read the level that ships, so each twin is also checked
against itself across backends: the interpreter and gcc run one
pipelined tree and agree bit for bit.
"""

import re

import pytest

from repro.buildd import get_service
from repro.passes import PIPELINE_VEC, pipeline_override

from .kernels import PAIRS

IDS = [name for name, _ in PAIRS]

LEVELS = [0, 1, 2]
BACKENDS = ["interp", "c"]


def normalize_ir(text: str) -> str:
    """Rewrite globally-unique symbol ids to first-appearance ordinals
    so IR from two independently specialized functions can be compared
    textually (`acc_17` and `acc_42` both become `acc$0`)."""
    mapping = {}

    def repl(match):
        token = match.group(0)
        if token not in mapping:
            mapping[token] = f"{match.group(1)}${len(mapping)}"
        return mapping[token]

    return re.sub(r"\b([A-Za-z_]\w*?)_(\d+)\b", repl, text)


@pytest.mark.parametrize("name,factory", PAIRS, ids=IDS)
def test_identical_typed_ir_at_every_level(name, factory):
    string_fn, py_fn, _run = factory()
    assert string_fn.frontend == "string"
    assert py_fn.frontend == "pyast"
    for level in LEVELS:
        s_ir = normalize_ir(string_fn.get_optimized_ir(level))
        p_ir = normalize_ir(py_fn.get_optimized_ir(level))
        assert s_ir == p_ir, (
            f"{name}: typed IR diverges between frontends at pipeline "
            f"level {level}")


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("level", LEVELS)
@pytest.mark.parametrize("name,factory", PAIRS, ids=IDS)
def test_bit_identical_results(name, factory, level, backend):
    string_fn, py_fn, run = factory()
    with pipeline_override(level):
        s_handle = string_fn.compile(backend)
        p_handle = py_fn.compile(backend)
    assert run(s_handle) == run(p_handle), (
        f"{name}: results diverge between frontends on {backend} at "
        f"level {level}")


@pytest.mark.parametrize("name,factory", PAIRS, ids=IDS)
def test_byte_identical_c_source(name, factory):
    """The C emitter names locals by ordinal, so frontend parity goes
    all the way down: both twins emit the *same bytes* of C — a
    decorated kernel is a buildd artifact-cache hit whenever its string
    twin (or a previous run) compiled first."""
    string_fn, py_fn, _run = factory()
    assert string_fn.get_c_source() == py_fn.get_c_source()


def pass_runs():
    return {name: row["runs"]
            for name, row in get_service().stats.snapshot()["passes"].items()}


@pytest.mark.parametrize("frontend", ["string", "pyast"])
@pytest.mark.parametrize("name,factory", PAIRS, ids=IDS)
def test_interp_checks_the_tree_c_ships(name, factory, frontend, cbackend):
    """The interpreter is the oracle for the C that ships: compiled after
    it, C runs no pass (it reads the tree the interpreter walked) and
    gives the interpreter's bits."""
    string_fn, py_fn, run = factory()
    fn = string_fn if frontend == "string" else py_fn
    oracle = run(fn.compile("interp"))
    runs = pass_runs()
    shipped = run(fn.compile(cbackend))
    assert pass_runs() == runs, f"{name}: C re-ran the pipeline"
    assert shipped == oracle, (
        f"{name}: {frontend} twin diverges between interp and C")


@pytest.mark.parametrize("name,factory", PAIRS, ids=IDS)
def test_c_source_independent_of_what_was_built_first(name, factory):
    """The emitted C is a function of the staged code alone: building the
    vectorized level and running the interpreter first changes no byte,
    so the buildd artifact cache hits whatever ran before."""
    fresh, _, _ = factory()
    c_first = fresh.get_c_source()
    fn, _, run = factory()
    fn.get_optimized_ir(PIPELINE_VEC)
    run(fn.compile("interp"))
    assert fn.get_c_source() == c_first


def test_corpus_is_large_enough():
    # the acceptance floor: >= 12 paired kernels, including the named shapes
    assert len(PAIRS) >= 12
    names = set(IDS)
    assert "blur3" in names           # stencil
    assert {"sum_sq", "dot"} <= names  # reductions
    assert "shift_alias" in names     # pointer aliasing
    assert "unrolled" in names        # quote splicing
