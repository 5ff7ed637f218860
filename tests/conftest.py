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
def settled_shape_units():
    """A shape unit a test's calls requested (a scalar handle's tenth call
    from Python) finishes building before the next test, so no test counts
    another's background compile."""
    yield
    runtime = sys.modules.get("repro.backend.c.runtime")
    if runtime is not None:
        runtime._REQUESTS.join()
