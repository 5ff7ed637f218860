"""The per-function call dispatcher — one object that owns *how* a
Terra function executes from Python.

Every ``TerraFunction`` creates one :class:`Dispatcher` at construction;
``fn(...)`` runs its **call slot** (:attr:`Dispatcher.target`),
``fn.compile()``/``fn.compile_async()`` delegate to it, and backends
install the handles they bind through :meth:`Dispatcher.install`.

The slot starts as the dispatcher's resolver, which has the process-wide
:class:`~repro.exec.policy.ExecutionPolicy` (see :mod:`repro.exec`)
*install* what later calls run — a bound backend handle's ``entry``, or
the tiered policy's trampoline, which overwrites the slot again at
tier-up — so a warm call consults nothing.  What could change the answer
(a policy or default-backend switch) calls :func:`reset_slots` instead.
"""

from __future__ import annotations

import threading
import weakref
from typing import Callable, Optional

from ..errors import FFIError

#: taken only to install into a slot and to reset the slots, never by a call
_slots_lock = threading.Lock()
_epoch = 0      # bumped by a reset; an install decided before one is refused
_installed: "weakref.WeakSet[Dispatcher]" = weakref.WeakSet()


def reset_slots() -> None:
    """Point every installed call slot back at its resolver: each function's
    next call asks the policy (and default backend) current *then*."""
    global _epoch
    with _slots_lock:
        _epoch += 1
        for dispatcher in _installed:
            dispatcher.target = dispatcher._resolve
        _installed.clear()


#: a profile slot's value once its position has held two distinct ones
VARYING = object()


class TierState:
    """Mutable tiering state for one dispatcher under the tiered policy.

    ``tier`` is 0 while calls run interpreted, 1 once the generic C entry
    is installed.  ``profile`` is the tier-0 value profile, one
    ``[observations, value | VARYING]`` slot per parameter: an exact
    ``int`` / ``bool`` while every observed call passed that one value,
    :data:`VARYING` otherwise.  ``respec`` (a
    :class:`repro.exec.respec.Respecialized`) appears when stable slots
    produced a guarded, constant-spliced variant.  ``deopts`` counts guard
    failures that fell back to the generic entry.
    """

    __slots__ = ("lock", "calls", "profile", "tier", "ticket", "generic",
                 "respec", "deopts", "failed")

    def __init__(self, nparams: int) -> None:
        self.lock = threading.Lock()
        self.calls = 0          # tier-0 calls observed so far
        self.profile = [[0, None] for _ in range(nparams)]
        self.tier = 0
        #: the tier-up's CompileTickets — generic entry, then the variant's
        #: if there is one; () while the crossing call is staging them
        self.ticket = None
        self.generic = None     # compiled C handle once tier >= 1
        self.respec = None      # Respecialized variant, if any
        self.deopts = 0         # guard failures -> generic fallback
        self.failed = False     # parked at tier 0: failed, or no compiler

    def observe(self, args) -> None:
        """Fold one call's arguments (as many as parameters) into the
        profile.  Called with ``lock`` held."""
        for slot, arg in zip(self.profile, args):
            if type(arg) not in (int, bool):    # nothing a guard could hold
                slot[1] = VARYING
            elif slot[0] == 0:
                slot[1] = arg
            elif slot[1] is not VARYING and (
                    type(arg) is not type(slot[1]) or arg != slot[1]):
                slot[1] = VARYING
            slot[0] += 1


class Dispatcher:
    """Owns one function's execution state: the call slot, compiled
    handles per backend, pending compile tickets, and (under the tiered
    policy) tier state.

    Calls are ``fn(...) -> dispatcher.target(...)``; flipping the policy
    (tests, ``REPRO_TERRA_EXEC_POLICY``) still affects already-built
    functions: it resets their slots and the next call re-resolves.
    """

    __slots__ = ("fn", "target", "handles", "pending", "tier", "__weakref__")

    def __init__(self, fn) -> None:
        self.fn = fn
        #: the call slot: the resolver, or what a policy installed over it
        self.target: Callable = self._resolve
        #: backend name -> callable handle (ExecutableHandle)
        self.handles: dict[str, object] = {}
        #: backend name -> CompileTicket for an in-flight compile
        self.pending: dict[str, object] = {}
        #: TierState, lazily created by the tiered policy
        self.tier: Optional[TierState] = None

    # -- handle management --------------------------------------------------
    def install(self, backend_name: str, handle):
        """Install ``handle`` for ``backend_name``; first install wins
        (concurrent binds of the same unit are idempotent).  Returns the
        installed handle."""
        return self.handles.setdefault(backend_name, handle)

    def compiled_handle(self, backend=None):
        """The callable handle for ``backend`` (default backend if None),
        compiling on demand — ``compile_async(backend).result()``."""
        return self.compile_async(backend).result()

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
    def _resolve(self, *args):
        """The slot's resting state: install the current policy's target,
        then run it.  A failed compile raises from here with nothing
        installed, so the next call retries."""
        if self.fn.is_external:
            raise FFIError(
                f"{self.fn.name}() is an external C function: externals are "
                f"called from Terra code, not from Python")
        from . import current_policy
        epoch = _epoch      # read before the policy: a flip in between shows
        target = current_policy().target_for(self, epoch)
        return self.set_target(target, epoch)(*args)

    def set_target(self, target: Callable, epoch: int) -> Callable:
        """Install ``target`` for the resolve that read ``epoch`` — unless
        a reset since then has given the slot to a newer policy — and
        return it."""
        with _slots_lock:
            if epoch == _epoch:
                self.target = target
                _installed.add(self)
        return target

    # -- introspection -------------------------------------------------------
    def tier_info(self) -> dict:
        """A snapshot of tiering state: ``{"tier", "calls",
        "respecialized", "deopts"}``.  ``tier`` is 0 until a tier-up has
        completed, even under ahead-of-time policies (where it simply
        never advances)."""
        st = self.tier or TierState(0)
        return {
            "tier": st.tier,
            "calls": st.calls,
            "respecialized": st.respec is not None,
            "deopts": st.deopts,
        }

    def __repr__(self) -> str:
        tiers = f", tier={self.tier.tier}" if self.tier is not None else ""
        return (f"<Dispatcher {self.fn.name!r} "
                f"handles={sorted(self.handles)}{tiers}>")
