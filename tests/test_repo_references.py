"""Docs and tooling may only name things that exist.

Every ``make <target>``, ``benchmarks/<path>[::test]``, ``tests/<path>``
and ``python -m repro.<module>`` written in the README, the design and
experiment records, ``docs/``, the Makefile or the CI workflow must
resolve in this checkout — so deleting a target, a test or a CLI fails
here until the prose that sends readers to it is fixed too.  So must
every ``make <target>`` in a module docstring under ``src/``, every
"CI `<job>` job" the prose names (against the workflow's job list), and
every fully-qualified Sphinx role in ``src/`` (``:class:`~repro.x.Y```:
resolved by import, then attribute by attribute) — so a deleted function
cannot live on in a docstring's cross-reference.
"""

import ast
import glob
import importlib
import importlib.util
import os
import re

import pytest

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_PROSE = ["README.md", "DESIGN.md", "EXPERIMENTS.md",
          *sorted(os.path.relpath(p, _ROOT)
                  for p in glob.glob(os.path.join(_ROOT, "docs", "*.md")))]
_TOOLING = ["Makefile", ".github/workflows/ci.yml"]

#: in prose only code counts (`inline` or fenced): "make sure" is English
_CODE = re.compile(r"```.*?```|`[^`\n]+`", re.S)
_MAKE = re.compile(r"\bmake ([a-z][a-z0-9-]*)")
_PATH = re.compile(r"\b((?:benchmarks|tests)/[\w./-]*\w)((?:::\w+)*)")
_MODULE = re.compile(r"python3? -m (repro(?:\.\w+)*)")
_TARGET = re.compile(r"^([a-z][a-z0-9-]*):", re.M)
_CI_JOB = re.compile(r"\bCI `([\w-]+)` job")
_JOB = re.compile(r"^  ([\w-]+):\s*$", re.M)     # two-space keys under jobs:
#: a role may break its dotted name across lines after a dot
_ROLE = re.compile(r":(?:mod|class|func|meth|data|attr):"
                   r"`~?(repro(?:\.\s*\w+)*)`")


def _text(rel):
    with open(os.path.join(_ROOT, rel), encoding="utf-8") as f:
        return f.read()


def _references():
    """Every (file, kind, reference) triple the scanned files contain."""
    for rel in _PROSE + _TOOLING:
        text = _text(rel)
        code = text if rel in _TOOLING else "\n".join(_CODE.findall(text))
        for target in _MAKE.findall(code):
            yield rel, "make", target
        for path, names in _PATH.findall(text):
            yield rel, "path", path + names
        for module in _MODULE.findall(text):
            yield rel, "module", module
        for job in _CI_JOB.findall(text):
            yield rel, "ci-job", job
    for path in sorted(glob.glob(os.path.join(_ROOT, "src", "**", "*.py"),
                                 recursive=True)):
        rel = os.path.relpath(path, _ROOT)
        docstring = ast.get_docstring(ast.parse(_text(rel))) or ""
        for target in _MAKE.findall("\n".join(_CODE.findall(docstring))):
            yield rel, "make", target
        for name in _ROLE.findall(_text(rel)):
            yield rel, "role", re.sub(r"\s+", "", name)


def _missing(kind, ref):
    if kind == "make":
        return ref not in _TARGET.findall(_text("Makefile"))
    if kind == "ci-job":
        workflow = _text(".github/workflows/ci.yml")
        return ref not in _JOB.findall(workflow[workflow.index("\njobs:"):])
    if kind == "role":
        return _unresolved(ref)
    if kind == "module":
        spec = importlib.util.find_spec(ref)
        if spec is not None and spec.submodule_search_locations is not None:
            spec = importlib.util.find_spec(ref + ".__main__")
        return spec is None
    path, *names = ref.split("::")
    if path.startswith("benchmarks/ledger/out"):
        return False  # what a ledger run writes; git-ignored
    full = os.path.join(_ROOT, path)
    if not os.path.exists(full):
        return True
    source = _text(path) if names else ""
    return any(not re.search(rf"^\s*(?:def|class) {name}\b", source, re.M)
               for name in names)


def _unresolved(dotted):
    """Import the longest module prefix of ``dotted``, then walk the rest
    with getattr."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        try:
            for name in parts[cut:]:
                obj = getattr(obj, name)
        except AttributeError:
            return True
        return False
    return True


def test_every_named_target_path_and_module_exists():
    refs = sorted(set(_references()))
    assert len(refs) > 50  # the scan itself still finds things
    assert sum(kind == "role" for _, kind, _ in refs) > 100
    dangling = [r for r in refs if _missing(r[1], r[2])]
    assert not dangling, "\n".join(map(str, dangling))


@pytest.mark.parametrize("kind,ref", [
    ("make", "tier-smoke"),
    ("make", "autovec-smoke"),           # src/repro/passes/vectorize.py said
    ("ci-job", "schedule-smoke"),        # docs/SCHEDULES.md said
    ("path", "benchmarks/test_fig6_gemm.py"),
    ("path", "tests/test_config.py::test_no_such_test"),
    ("module", "repro.parallel"),        # a package without __main__
    ("module", "repro.no_such_module"),
    ("role", "repro.orion.schedule"),    # src/repro/orion/lang.py said
    ("role", "repro.backend.base.CompileTicket.aresult"),   # serve/server.py
])
def test_a_removed_reference_is_reported(kind, ref):
    assert _missing(kind, ref)
