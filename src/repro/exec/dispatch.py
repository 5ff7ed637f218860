"""The per-function call dispatcher — one object that owns *how* a
Terra function executes from Python.

Every ``TerraFunction`` creates one :class:`Dispatcher` at construction;
``fn(...)``/``fn.compile()``/``fn.compile_async()`` delegate to it, and
backends install the handles they bind through :meth:`Dispatcher.install`.

What to run on a call is decided by the process-wide
:class:`~repro.exec.policy.ExecutionPolicy` (see :mod:`repro.exec`):
ahead-of-time policies resolve a backend handle and call it; the tiered
policy additionally keeps per-dispatcher tier state (interpreted tier-0,
background tier-up to C, optional respecialized variant guarded on
observed argument values) in :class:`TierState`.
"""

from __future__ import annotations

import threading
from typing import Callable, Optional


class TierState:
    """Mutable tiering state for one dispatcher under the tiered policy.

    ``tier`` is 0 while calls run interpreted, 1 once the generic C entry
    is installed.  ``respec`` (a :class:`repro.exec.respec.Respecialized`)
    appears when stable tier-0 argument observations produced a guarded,
    constant-spliced variant.  ``deopts`` counts guard failures that fell
    back to the generic entry.
    """

    __slots__ = ("lock", "calls", "tier", "ticket", "generic", "respec",
                 "deopts", "failed")

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.calls = 0          # tier-0 calls observed so far
        self.tier = 0
        self.ticket = None      # in-flight tier-up (Future-like), if any
        self.generic = None     # compiled C handle once tier >= 1
        self.respec = None      # Respecialized variant, if any
        self.deopts = 0         # guard failures -> generic fallback
        self.failed = False     # tier-up failed; stay interpreted


class Dispatcher:
    """Owns one function's execution state: compiled handles per backend,
    pending compile tickets, and (under the tiered policy) tier state.

    Calls route ``Dispatcher.__call__ -> current policy -> backend
    handle``; the policy is consulted per call, so flipping the policy
    (tests, ``REPRO_TERRA_EXEC_POLICY``) affects already-built functions.
    """

    __slots__ = ("fn", "handles", "pending", "tier", "on_tier_up")

    def __init__(self, fn) -> None:
        self.fn = fn
        #: backend name -> callable handle (ExecutableHandle)
        self.handles: dict[str, object] = {}
        #: backend name -> CompileTicket for an in-flight compile
        self.pending: dict[str, object] = {}
        #: TierState, lazily created by the tiered policy
        self.tier: Optional[TierState] = None
        #: hook fired (with this dispatcher) when a tier-up completes —
        #: repro.serve uses it to count/trace per-tenant tier-ups
        self.on_tier_up: Optional[Callable[["Dispatcher"], None]] = None

    # -- handle management --------------------------------------------------
    def install(self, backend_name: str, handle):
        """Install ``handle`` for ``backend_name``; first install wins
        (concurrent binds of the same unit are idempotent).  Returns the
        installed handle."""
        return self.handles.setdefault(backend_name, handle)

    def compiled_handle(self, backend=None):
        """The callable handle for ``backend`` (default backend if None),
        compiling on demand — ``compile_async(backend).result()``."""
        from ..backend.base import resolve_backend
        backend = resolve_backend(backend)
        handle = self.handles.get(backend.name)
        if handle is None:
            handle = self.compile_async(backend).result()
        return handle

    def compile_async(self, backend=None):
        """Start compiling on ``backend`` without waiting; returns the
        ``CompileTicket`` whose ``result()`` binds — once, however many
        callers join — and yields the installed handle.  Until it settles
        it is :attr:`pending`, shared by every compile and call; a failed
        one is forgotten with the rest, so the next compile retries."""
        from ..backend.base import CompileTicket, resolve_backend
        backend = resolve_backend(backend)
        name = backend.name
        handle = self.handles.get(name)
        if handle is not None:
            return CompileTicket.completed(handle)
        ticket = self.pending.get(name)
        if ticket is None:
            from ..core.linker import ensure_compiled
            ticket = ensure_compiled(self.fn, backend)
            if name not in self.handles:    # interp binds at once: none pends
                ticket.on_settled = lambda: self.pending.pop(name, None)
                ticket = self.pending.setdefault(name, ticket)
        return ticket

    # -- calling ------------------------------------------------------------
    def __call__(self, *args):
        from . import current_policy
        return current_policy().call(self, args)

    # -- introspection -------------------------------------------------------
    def tier_state(self) -> TierState:
        """The tier state, creating it on first use (tiered policy only)."""
        st = self.tier
        if st is None:
            st = self.tier = TierState()
        return st

    def tier_info(self) -> dict:
        """A snapshot of tiering state: ``{"tier", "calls",
        "respecialized", "deopts"}``.  ``tier`` is 0 until a tier-up has
        completed, even under ahead-of-time policies (where it simply
        never advances)."""
        st = self.tier
        if st is None:
            return {"tier": 0, "calls": 0, "respecialized": False,
                    "deopts": 0}
        respec = st.respec
        return {
            "tier": st.tier,
            "calls": st.calls,
            "respecialized": respec is not None and respec.ready(),
            "deopts": st.deopts,
        }

    def __repr__(self) -> str:
        tiers = f", tier={self.tier.tier}" if self.tier is not None else ""
        return (f"<Dispatcher {self.fn.name!r} "
                f"handles={sorted(self.handles)}{tiers}>")
