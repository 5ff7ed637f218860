"""Admission control: fast-reject before any work is queued.

Two limits, both checked on the event loop at arrival time (no locks —
every mutation happens on the loop thread):

* a **global in-flight bound** (``queue_limit``): the total number of
  admitted-but-unanswered requests across all tenants.  Beyond it the
  server answers ``overloaded`` immediately instead of queueing — bounded
  queue depth keeps tail latency bounded too (a request that would wait
  seconds is better told "no" in microseconds, and the client's retry
  policy, not the server's memory, absorbs the burst);
* a **per-tenant concurrency cap** (``tenant_limit``): one tenant
  flooding the service hits ``tenant-over-quota`` while the other
  tenants' requests keep being admitted — the multi-tenant fairness
  floor.

Both rejections are counted (``serve.rejected.overloaded`` /
``serve.rejected.tenant`` in ``rejected``) and traced as instants, so a
load generator can verify fast-reject behaviour from the metrics alone.
"""

from __future__ import annotations

from typing import Optional

from .. import trace as _trace
from .state import TenantState


class Admission:
    """Loop-confined admission state (not thread-safe by design)."""

    def __init__(self, queue_limit: int, tenant_limit: int):
        self.queue_limit = max(1, int(queue_limit))
        self.tenant_limit = max(1, int(tenant_limit))
        self.inflight = 0
        self.peak = 0
        self.rejected = dict.fromkeys(("serve.rejected.overloaded",
                                       "serve.rejected.tenant"), 0)

    def try_admit(self, tenant: TenantState) -> Optional[tuple[str, str]]:
        """Admit the request (returns None) or return a fast-reject
        ``(code, message)`` without mutating any state."""
        if self.inflight >= self.queue_limit:
            self.rejected["serve.rejected.overloaded"] += 1
            _trace.instant("serve.reject", cat="serve", code="overloaded",
                           inflight=self.inflight)
            return ("overloaded",
                    f"server at queue limit ({self.queue_limit} requests "
                    f"in flight); retry with backoff")
        if tenant.inflight >= self.tenant_limit:
            self.rejected["serve.rejected.tenant"] += 1
            _trace.instant("serve.reject", cat="serve",
                           code="tenant-over-quota", tenant=tenant.name)
            return ("tenant-over-quota",
                    f"tenant {tenant.name!r} at its concurrency cap "
                    f"({self.tenant_limit})")
        self.inflight += 1
        tenant.inflight += 1
        if self.inflight > self.peak:
            self.peak = self.inflight
        return None

    def release(self, tenant: TenantState) -> None:
        self.inflight -= 1
        tenant.inflight -= 1
        assert self.inflight >= 0 and tenant.inflight >= 0
