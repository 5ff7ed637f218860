"""Fixtures shared by the exec tests."""

import pytest

from tests.buildd.conftest import fake_cc_path, fake_toolchain  # noqa: F401


@pytest.fixture
def cold_service(tmp_path, swap_service):
    """A compile service over an empty private cache: every unit is a
    real compiler run.  Call it with a toolchain for one that uses it."""
    from repro.buildd.cache import ArtifactCache
    from repro.buildd.service import CompileService

    def fresh(tc=None):
        return swap_service(CompileService(
            jobs=2, tc=tc, cache=ArtifactCache(root=str(tmp_path / "cache"))))
    fresh()
    return fresh


@pytest.fixture
def slow_cc(cold_service, cbackend, fake_toolchain, monkeypatch):
    """A cold service whose compiler is the host's behind the fake one's
    switches, and whose linker is the host's: ``FAKECC_DELAY`` holds a
    build that then loads and runs."""
    import dataclasses
    from repro.buildd import toolchain
    real = toolchain.require_toolchain()
    monkeypatch.setenv("FAKECC_REAL", real.path)
    return cold_service(dataclasses.replace(fake_toolchain, ld=real.ld,
                                            libgcc=real.libgcc))
