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
