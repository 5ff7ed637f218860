"""repro.config is the only place a ``REPRO_*`` variable is read, named
or documented; docs/ENVIRONMENT.md is its rendering."""

import os
import re

import pytest

from repro import config
from repro.errors import ConfigError

_ROOT = os.path.join(os.path.dirname(__file__), "..")
_VAR = re.compile(r"REPRO_[A-Z0-9_]+")
#: an environment *read* of a REPRO_ name (``os.environ[...] = v`` writes,
#: as fuzz/child.py does before importing repro, are not reads)
_READ = re.compile(r"""os\.(environ\.get|getenv)\(\s*["']REPRO_"""
                   r"""|os\.environ\[\s*["']REPRO_\w*["']\s*\](?!\s*=[^=])""")


def _files(*tops, skip=()):
    for top in tops:
        path = os.path.join(_ROOT, top)
        if os.path.isfile(path):
            yield top
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames[:] = [d for d in dirnames if d != "__pycache__"]
            for name in filenames:
                rel = os.path.relpath(os.path.join(dirpath, name), _ROOT)
                if not rel.endswith(".pyc") and not rel.startswith(skip):
                    yield rel


def _text(rel):
    with open(os.path.join(_ROOT, rel), encoding="utf-8") as f:
        return f.read()


def test_nothing_but_config_reads_the_environment():
    readers = [rel for rel in _files("src", "benchmarks",
                                     skip=("benchmarks/ledger",
                                           "src/repro/config.py"))
               if rel.endswith(".py") and _READ.search(_text(rel))]
    assert not readers


def test_every_variable_named_anywhere_is_a_row():
    """Code, prose and tooling may only name variables the table has (or,
    for globs like ``REPRO_TERRA_TIER_*``, a prefix of one) — so a retired
    name cannot linger."""
    stray = {(rel, name)
             for rel in _files("src", "docs", "README.md", "Makefile",
                               ".github")
             for name in _VAR.findall(_text(rel))
             if not (name in config.VARS or name.endswith("_")
                     and any(v.startswith(name) for v in config.VARS))}
    assert not stray


def test_environment_md_is_the_rendered_table():
    assert _text("docs/ENVIRONMENT.md") == config.render(), \
        "docs/ENVIRONMENT.md is stale: run `make env-doc`"


#: per row: a good raw value, what it parses to, a bad raw value (None
#: where the type accepts any string)
SAMPLES = {
    "REPRO_TERRA_BACKEND": ("interp", "interp", "llvm"),
    "REPRO_TERRA_CC": ("/usr/bin/cc", "/usr/bin/cc", None),
    "REPRO_TERRA_CACHE": ("/tmp/c", "/tmp/c", None),
    "REPRO_BUILDD_JOBS": ("0", 1, "abc"),
    "REPRO_BUILDD_CACHE_BYTES": ("4096", 4096, "1G"),
    "REPRO_BUILDD_CACHE_ENTRIES": ("-3", 0, "junk"),
    "REPRO_TERRA_PIPELINE": ("2", 2, "3"),
    "REPRO_TERRA_VEC_BYTES": ("16", 16, "48"),
    "REPRO_TERRA_DISABLE_PASSES": ("simplify, dce", ("simplify", "dce"),
                                   None),
    "REPRO_TERRA_DUMP_IR": ("all", "all", None),
    "REPRO_TERRA_VERIFY_IR": ("false", True, None),
    "REPRO_TERRA_THREADS": ("0", 1, "two"),
    "REPRO_TERRA_EXEC_POLICY": ("tiered", "tiered", "jit"),
    "REPRO_TERRA_TIER_THRESHOLD": ("3", 3, "x"),
    "REPRO_TERRA_TIER_SYNC": ("false", True, None),
    "REPRO_TERRA_FRONTEND_DEBUG": ("0", False, None),
    "REPRO_TERRA_TRACE": ("1", True, None),
    "REPRO_TERRA_TRACE_OUT": ("t.json", "t.json", None),
    "REPRO_TERRA_PROFILE": ("yes", True, None),
    "REPRO_SERVE_SOCKET": ("/tmp/s.sock", "/tmp/s.sock", None),
}


def test_every_row_has_a_sample():
    assert set(SAMPLES) == set(config.VARS)


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_row(monkeypatch, name):
    good, parsed, bad = SAMPLES[name]
    default = config.VARS[name][1]
    default = default() if callable(default) else default
    monkeypatch.delenv(name, raising=False)
    assert config.get(name) == default
    monkeypatch.setenv(name, "")
    assert config.get(name) == default
    monkeypatch.setenv(name, good)
    assert config.get(name) == parsed
    if bad is not None:
        monkeypatch.setenv(name, bad)
        with pytest.raises(ConfigError, match=f"{name}='{bad}': expected"):
            config.get(name)


def test_unknown_name_is_a_key_error():
    with pytest.raises(KeyError):
        config.get("REPRO_NO_SUCH_KNOB")
