"""Unit tests of admission control: the two fast-reject limits."""

from repro.serve.admission import Admission
from repro.serve.state import TenantState


def tenants(n):
    return [TenantState(f"t{i}", 4) for i in range(n)]


class TestGlobalBound:
    def test_admits_up_to_the_queue_limit(self):
        adm = Admission(queue_limit=2, tenant_limit=10)
        a, b, c = tenants(3)
        assert adm.try_admit(a) is None
        assert adm.try_admit(b) is None
        code, msg = adm.try_admit(c)
        assert code == "overloaded" and "retry" in msg

    def test_release_reopens_capacity(self):
        adm = Admission(queue_limit=1, tenant_limit=10)
        a, b = tenants(2)
        assert adm.try_admit(a) is None
        assert adm.try_admit(b) is not None
        adm.release(a)
        assert adm.try_admit(b) is None

    def test_rejection_does_not_mutate_counts(self):
        adm = Admission(queue_limit=1, tenant_limit=10)
        a, b = tenants(2)
        adm.try_admit(a)
        adm.try_admit(b)  # rejected
        assert adm.inflight == 1 and b.inflight == 0

    def test_rejections_are_counted(self):
        adm = Admission(queue_limit=2, tenant_limit=1)
        a, b, c = tenants(3)
        adm.try_admit(a)
        adm.try_admit(a)        # a at its cap
        adm.try_admit(b)
        adm.try_admit(c)        # the queue at its limit
        assert adm.rejected == {"serve.rejected.overloaded": 1,
                                "serve.rejected.tenant": 1}


class TestTenantCap:
    def test_one_tenant_cannot_starve_another(self):
        adm = Admission(queue_limit=100, tenant_limit=2)
        noisy, quiet = tenants(2)
        assert adm.try_admit(noisy) is None
        assert adm.try_admit(noisy) is None
        code, _ = adm.try_admit(noisy)
        assert code == "tenant-over-quota"
        assert adm.try_admit(quiet) is None  # the quiet tenant still admits

    def test_tenant_release_is_per_tenant(self):
        adm = Admission(queue_limit=100, tenant_limit=1)
        a, b = tenants(2)
        adm.try_admit(a)
        adm.try_admit(b)
        adm.release(a)
        assert adm.try_admit(a) is None
        assert adm.try_admit(b) is not None  # b still at its cap

    def test_peak_tracks_high_water_mark(self):
        adm = Admission(queue_limit=100, tenant_limit=100)
        a, b = tenants(2)
        adm.try_admit(a)
        adm.try_admit(b)
        adm.release(a)
        adm.release(b)
        assert adm.peak == 2 and adm.inflight == 0
