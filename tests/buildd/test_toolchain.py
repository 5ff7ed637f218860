"""Compiler discovery: single source of truth, identity hashing, overrides."""

import pytest

from repro.buildd import toolchain
from repro.errors import CompileError


@pytest.fixture(autouse=True)
def reprobe():
    """Each test starts from (and leaves behind) a fresh probe."""
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


class TestSingleSourceOfTruth:
    def test_backend_base_delegates(self):
        from repro.backend.base import _cc_available
        assert _cc_available() == toolchain.cc_available()
