"""Serving under the tiered execution policy: warm kernels start
interpreted, tier up in place, and the ``stats`` op reports per-tenant
tier counts (``tenants[t]["tiers"]``, read off each kernel's
``tier_info()``: there is no tier hook and no serve-side tier counter)."""

import pytest

from repro.exec import TieredPolicy, policy_override
from repro.serve import ServeConfig, ServerThread
from repro.trace.metrics import registry

from .conftest import SAXPY, earn_the_loop, saxpy_buffers

SQ = """
terra sq(x : double) : double
  return x * x
end
"""

AXPY = """
terra axpy(n : int64, a : double, x : &double) : double
  var acc : double = 0.0
  for i = 0, n do
    x[i] = a * x[i]
    acc = acc + x[i]
  end
  return acc
end
"""


@pytest.fixture()
def tiered_server(tmp_path):
    sock = str(tmp_path / "serve-tiered.sock")
    with policy_override(TieredPolicy(threshold=2, sync=True)):
        with ServerThread(ServeConfig(socket_path=sock, workers=2)) as srv:
            yield srv


class TestTieredServing:
    def test_kernel_climbs_tiers_in_place(self, cbackend, tiered_server):
        with tiered_server.client(tenant="t-hot") as c:
            # identical results on every call, whatever tier executes
            assert [c.call(SQ, "sq", [3.0]) for _ in range(4)] == [9.0] * 4
            tiers = c.stats()["tenants"]["t-hot"]["tiers"]
        assert tiers == {"tier0": 0, "tier1": 1}   # crossed long ago

    def test_a_chunked_kernel_climbs_tiers_like_any(self, cbackend,
                                                    tiered_server):
        """A range request runs the entry's chunked twin, which is an
        ordinary function: it starts interpreted and tiers up in place."""
        with tiered_server.client(tenant="t-chunk") as c:
            xs, ys = saxpy_buffers(c, 8)
            args = [8, 2.0, {"buf": xs}, {"buf": ys}]
            c.call(SAXPY, "saxpy", args, chunk=(0, 4))
            assert c.stats()["tenants"]["t-chunk"]["tiers"] == {
                "tier0": 1, "tier1": 0}
            for _ in range(2):
                c.call(SAXPY, "saxpy", args, chunk=(0, 4))
            assert c.stats()["tenants"]["t-chunk"]["tiers"] == {
                "tier0": 0, "tier1": 1}
            assert c.read(ys, 8) == [6.0 * i for i in range(4)] + [0.0] * 4

    def test_tier_counts_follow_the_transition(self, cbackend,
                                               tiered_server):
        before = registry().get("exec.tier_up")
        with tiered_server.client(tenant="t-a") as c:
            buf = c.alloc("float64", 8)
            c.write(buf, [1.0] * 8)
            c.call(AXPY, "axpy", [8, 1.0, {"buf": buf}])
            stats = c.stats()
            assert stats["tenants"]["t-a"]["tiers"] == {
                "tier0": 1, "tier1": 0}
            for _ in range(2):
                c.call(AXPY, "axpy", [8, 1.0, {"buf": buf}])
            stats = c.stats()
        assert stats["tenants"]["t-a"]["tiers"] == {"tier0": 0, "tier1": 1}
        assert "serve.tier_up" not in stats["counters"]
        assert registry().get("exec.tier_up") == before + 1

    @pytest.mark.parametrize("threshold,eligible", [(1000, 0), (2, 1)])
    def test_the_loop_runs_compiled_tiers_only(self, tmp_path, threshold,
                                               eligible, request):
        """A tier-0 call interprets (and the one that crosses the
        threshold may compile): it stays on the executor however short it
        was observed; the same traffic after tier-up earns the loop."""
        if eligible:
            request.getfixturevalue("cbackend")     # skips where there is no gcc
        sock = str(tmp_path / "serve-tiers.sock")
        with policy_override(TieredPolicy(threshold=threshold, sync=True)):
            with ServerThread(ServeConfig(socket_path=sock,
                                          workers=2)) as srv:
                with srv.client(tenant="t-tier") as c:
                    calls = 40
                    for _ in range(calls):
                        assert c.call(SQ, "sq", [3.0]) == 9.0
                    if eligible:
                        calls += earn_the_loop(c, SQ, "sq", [3.0])
                        assert c.call(SQ, "sq", [3.0]) == 9.0
                        calls += 1
                    summary = c.stats()["tenants"]["t-tier"]
        assert summary["tiers"]["tier1"] == eligible
        assert summary["inline_eligible"] == eligible
        assert (summary["inline"] > 0) == bool(eligible)
        assert summary["inline"] + summary["offloaded"] == calls

    def test_cold_kernel_reports_tier0(self, tiered_server):
        with tiered_server.client(tenant="t-cold") as c:
            assert c.call(SQ, "sq", [2.0]) == 4.0    # one call: below threshold
            tiers = c.stats()["tenants"]["t-cold"]["tiers"]
        assert tiers == {"tier0": 1, "tier1": 0}


def test_aot_serving_reports_no_tiers(tmp_path):
    """Without the tiered policy the summary's tier counts stay zero —
    warm kernels are plain ahead-of-time handles."""
    sock = str(tmp_path / "serve-aot.sock")
    with ServerThread(ServeConfig(socket_path=sock, workers=2)) as srv:
        with srv.client(tenant="t-plain") as c:
            for _ in range(4):
                assert c.call(SQ, "sq", [5.0]) == 25.0
            summary = c.stats()["tenants"]["t-plain"]
    assert summary["tiers"] == {"tier0": 0, "tier1": 0}
