"""Shared fixtures for the test suite."""

import sys

import pytest

from repro import get_backend


@pytest.fixture
def cbackend():
    from repro.buildd import toolchain
    if not toolchain.cc_available():
        pytest.skip("no C compiler on this host")
    return get_backend("c")


@pytest.fixture
def c_default(cbackend):
    """C as the default backend for this test, whatever
    ``REPRO_TERRA_BACKEND`` says: for tests that call ``fn(...)`` and then
    assert C-backend state (``dispatcher.handles["c"]``, memo rows)."""
    import repro
    saved = repro.default_backend().name
    repro.set_default_backend("c")
    yield cbackend
    repro.set_default_backend(saved)


@pytest.fixture(params=["c", "interp"])
def backend(request):
    """Both execution backends; differential tests run everything twice."""
    if request.param == "c":
        return request.getfixturevalue("cbackend")
    return get_backend(request.param)


@pytest.fixture
def interp():
    return get_backend("interp")


@pytest.fixture
def swap_service():
    """Temporarily replace the process-wide compile service (without
    shutting down the real one, which later tests still need)."""
    import repro.buildd.service as service_mod

    saved = service_mod._service
    installed = []

    def install(svc):
        service_mod._service = svc
        installed.append(svc)
        return svc

    yield install
    service_mod._service = saved
    for svc in installed:
        svc.shutdown()


@pytest.fixture(autouse=True)
def drained_builds():
    """A build a test started — a unit compiled in the background, a scalar
    handle's shape unit and the install that follows it — ends with the
    test, so no test counts another's compile."""
    yield
    if "repro.buildd" in sys.modules:
        from repro.buildd import get_service
        get_service().drain()
