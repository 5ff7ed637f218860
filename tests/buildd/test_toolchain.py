"""Compiler discovery: single source of truth, identity hashing, overrides,
and the probe kept in the artifact cache."""

import json
import os
import subprocess
import sys
import textwrap

import pytest

from repro.buildd import toolchain
from repro.errors import CompileError


@pytest.fixture(autouse=True)
def reprobe(tmp_path, monkeypatch):
    """Each test starts from (and leaves behind) a fresh probe, kept in a
    cache of its own."""
    monkeypatch.setenv("REPRO_TERRA_CACHE", str(tmp_path / "cache"))
    toolchain.reset()
    yield
    toolchain.reset()


class TestDiscovery:
    def test_probe_is_cached(self):
        assert toolchain.default_toolchain() is toolchain.default_toolchain()

    def test_env_override(self, fake_cc_path, monkeypatch):
        monkeypatch.setenv("REPRO_TERRA_CC", fake_cc_path)
        toolchain.reset()
        tc = toolchain.require_toolchain()
        assert tc.path == fake_cc_path
        assert tc.version.startswith("fakecc")
        assert len(tc.identity) == 12
        assert tc.ld == os.path.join(os.path.dirname(fake_cc_path), "fakeld")
        assert tc.libgcc == ""      # "libgcc.a": gcc found none

    def test_no_compiler_raises_compile_error(self, monkeypatch):
        monkeypatch.setattr(toolchain.shutil, "which", lambda _name: None)
        toolchain.reset()
        assert not toolchain.cc_available()
        assert toolchain.cc_identity() == ""
        with pytest.raises(CompileError, match="no C compiler"):
            toolchain.find_cc()

    def test_identity_tracks_version(self, fake_cc_path, monkeypatch):
        monkeypatch.setenv("REPRO_TERRA_CC", fake_cc_path)
        toolchain.reset()
        first = toolchain.cc_identity()
        # "upgrade" the compiler: same path, new --version banner
        text = open(fake_cc_path).read().replace("fakecc 1.0", "fakecc 2.0")
        with open(fake_cc_path, "w") as f:
            f.write(text)
        toolchain.reset()
        assert toolchain.cc_identity() != first

    def test_identity_tracks_the_linker(self, fake_cc_path, monkeypatch):
        monkeypatch.setenv("REPRO_TERRA_CC", fake_cc_path)
        first = toolchain.cc_identity()
        ld = toolchain.default_toolchain().ld
        with open(ld, "a") as f:        # "upgrade" the linker
            f.write("# 2.0\n")
        toolchain.reset()
        assert toolchain.cc_identity() != first

    def test_nonexistent_cc_means_no_compiler(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_TERRA_CC", "/nonexistent/cc")
        assert not toolchain.cc_available()
        with pytest.raises(CompileError, match="REPRO_TERRA_CC"):
            toolchain.find_cc()
        assert not (tmp_path / "cache" / "toolchain").exists()


class TestProbeCache:
    def test_a_warm_probe_spawns_nothing(self, fake_cc_path, monkeypatch):
        monkeypatch.setenv("REPRO_TERRA_CC", fake_cc_path)
        first = toolchain.default_toolchain()
        toolchain.reset()

        def refuse(*args, **kw):
            raise AssertionError(f"spawned {args}")
        monkeypatch.setattr(subprocess, "Popen", refuse)
        assert toolchain.default_toolchain() == first

    def test_a_compiler_swapped_behind_a_wrapper_is_probed_again(
            self, fake_cc_path, monkeypatch, tmp_path):
        """A wrapper (ccache, a script) keeps its own signature when the
        compiler it runs is upgraded; the probe's record also holds cc1's,
        which the upgrade replaces."""
        wrapper = tmp_path / "wrap" / "cc"
        wrapper.parent.mkdir()
        wrapper.write_text(f'#!/bin/sh\nexec {fake_cc_path} "$@"\n')
        wrapper.chmod(0o755)
        monkeypatch.setenv("REPRO_TERRA_CC", str(wrapper))
        first = toolchain.default_toolchain()
        assert first.version == "fakecc 1.0"
        text = open(fake_cc_path).read().replace("fakecc 1.0", "fakecc 2.0")
        with open(fake_cc_path, "w") as f:
            f.write(text)
        cc1 = os.path.join(os.path.dirname(fake_cc_path), "fakecc1")
        with open(cc1, "w") as f:       # the upgrade's new cc1
            f.write("2.0")
        toolchain.reset()
        second = toolchain.default_toolchain()
        assert second.version == "fakecc 2.0"
        assert second.identity != first.identity

    def test_a_damaged_record_is_probed_again(self, fake_cc_path,
                                              monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_TERRA_CC", fake_cc_path)
        first = toolchain.default_toolchain()
        (record,) = (tmp_path / "cache" / "toolchain").iterdir()
        record.write_text("{not json")
        toolchain.reset()
        assert toolchain.default_toolchain() == first
        assert json.loads(record.read_text())["version"] == "fakecc 1.0"

    def test_fresh_process_with_a_warm_cache_spawns_no_child(
            self, cbackend, tmp_path):
        """The first hit of a fresh process runs no ``cc --version`` nor
        ``-print-*``: the probe is read from the cache, like the memo."""
        child = textwrap.dedent("""
            import json, subprocess
            spawned = []
            real = subprocess.Popen.__init__
            def init(self, args, *rest, **kw):
                spawned.append(args)
                real(self, args, *rest, **kw)
            subprocess.Popen.__init__ = init
            import repro
            fn = repro.terra("terra warm(a : int, b : int) : int "
                             "return a + b end")
            assert fn(2, 3) == 5
            print(json.dumps(spawned))
        """)
        env = {**os.environ, "REPRO_TERRA_CACHE": str(tmp_path / "child"),
               "REPRO_TERRA_BACKEND": "c",
               "PYTHONPATH": os.pathsep.join(sys.path)}
        cold, warm = (json.loads(subprocess.run(
            [sys.executable, "-c", child], env=env, capture_output=True,
            text=True, check=True).stdout) for _ in range(2))
        assert any("--version" in args for args in cold)
        assert warm == []


class TestSingleSourceOfTruth:
    def test_backend_base_delegates(self):
        from repro.backend.base import _cc_available
        assert _cc_available() == toolchain.cc_available()
