"""Execution policies — *what runs* when a Terra function is called.

A policy is asked by the resolver in a :class:`~repro.exec.dispatch.
Dispatcher`'s call slot what to *install* there for the function's calls
to run, and not again until a policy or default-backend switch resets it:

* :class:`AheadOfTimePolicy` — resolve one backend (the default, or a
  pinned one) and install its compiled handle.
* :class:`TieredPolicy` — install a tier-0 trampoline that interprets and
  counts calls.  The call that crosses the threshold stages the tier-up
  itself: one ``dispatcher.compile_async("c")`` ticket, the same one an
  ahead-of-time compile takes; the pipeline and emission run on that
  call, gcc on the buildd pool like every other compile.  Calls never
  wait for gcc (unless ``sync`` is set — the crossing call then joins its
  own ticket — which tests and the fuzzer use for determinism).  The
  first trampoline call to find the ticket done binds it and overwrites
  the slot with ``handles["c"].entry`` — the object the ``c`` policy
  installs — in place of the trampoline only, so a late build cannot undo
  a policy switch.  There is one compiled tier (a scalar plan's native
  entry is a rung, not a tier), so observable behavior is identical at
  every tier.  A value the program wants specialized it splices when it
  defines the function (an escape or ``constant()``).
  The tiers share one address space, so the state a program keeps in
  globals and on the heap carries across the tier-up.
"""

from __future__ import annotations

from typing import Callable, Optional

from .. import trace as _trace
from ..trace.metrics import registry as _registry
from .dispatch import TierState


class ExecutionPolicy:
    """Decides what occupies the call slot of ``dispatcher.fn``."""

    name = "abstract"

    def target_for(self, dispatcher) -> Callable:
        """What the resolver installs into ``dispatcher``'s slot; a target
        that replaces itself later does so with
        ``dispatcher.set_target(next, itself)``."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<policy {self.name}>"


class AheadOfTimePolicy(ExecutionPolicy):
    """Compile on first call, on one backend, and keep calling that
    handle.  ``backend_name=None`` means the process default backend
    (``REPRO_TERRA_BACKEND`` / autodetect)."""

    def __init__(self, backend_name: Optional[str] = None,
                 name: Optional[str] = None) -> None:
        self.backend_name = backend_name
        self.name = name or (backend_name or "aot")

    def target_for(self, dispatcher):
        return dispatcher.compiled_handle(self.backend_name).entry


class TieredPolicy(ExecutionPolicy):
    """Interp first, C when hot."""

    name = "tiered"

    def __init__(self, threshold: int = 10, sync: bool = False) -> None:
        #: tier-0 calls before the tier-up is staged
        self.threshold = max(1, int(threshold))
        #: the call crossing a rung (the tier-up, a native entry) waits for
        #: its ticket — tests/fuzzing, where determinism beats latency
        self.sync = bool(sync)

    # -- what the slot holds -------------------------------------------------
    def target_for(self, dispatcher):
        st = dispatcher.tier = dispatcher.tier or TierState()
        if st.tier:     # tiered up before an earlier policy switch
            return dispatcher.handles["c"].entry
        interp = dispatcher.compiled_handle("interp")
        nparams = len(dispatcher.fn.param_types)

        def tier0(*args):
            # count a call that will run (one of the wrong arity raises
            # below), stage the tier-up at the threshold and, once it is
            # built, hand the slot to tier 1 (to the interpreter, if the
            # function is parked)
            if st.ticket is None and not st.failed:
                with st.lock:
                    if (st.tier == 0 and st.ticket is None and not st.failed
                            and len(args) == nparams):
                        st.calls += 1
                        if st.calls >= self.threshold:
                            self._begin_tier_up(dispatcher, st)
            if st.ticket and st.ticket.done():
                with st.lock:
                    self._finish_tier_up(dispatcher, st)
            if st.tier:
                return dispatcher.set_target(
                    dispatcher.handles["c"].entry, tier0)(*args)
            if st.failed:
                dispatcher.set_target(interp, tier0)
            return interp(*args)

        tier0.__name__ = tier0.__qualname__ = dispatcher.fn.name
        return tier0

    # -- the tier-up: one ordinary compile ticket ----------------------------
    def _begin_tier_up(self, dispatcher, st) -> None:
        """Stage the tier-up on this, the crossing call — and, under
        ``sync``, finish it.  Called with ``st.lock`` held and
        ``st.ticket`` None.  Without a compiler there is nothing to tier
        up to: the function is parked, and nothing has failed."""
        from ..buildd import toolchain
        if not toolchain.cc_available():    # probed once per process
            st.failed = True
            return
        # begun: a call of fn made while this one stages (another thread's,
        # or Python the typechecker runs) interprets without taking the lock
        st.ticket = ()
        try:
            with _trace.span(f"exec.tier_up:{dispatcher.fn.name}",
                             cat="exec"):
                st.ticket = dispatcher.compile_async("c")
        except Exception:
            return self._park(st)
        if self.sync:
            self._finish_tier_up(dispatcher, st)

    @staticmethod
    def _park(st) -> None:
        """A failed tier-up: the function stays at tier 0 for good (calls
        stay interpreted, semantics unchanged)."""
        st.failed = True
        st.ticket = None
        _registry().add("exec.tier_up_failed")

    def _finish_tier_up(self, dispatcher, st) -> None:
        """Bind the tier-up's ticket — waiting for it if it still builds —
        and enter tier 1.  Called with ``st.lock`` held."""
        if not st.ticket or st.tier != 0:
            return
        try:
            st.ticket.result()      # installs handles["c"]
        except Exception:
            return self._park(st)
        st.ticket = None
        st.tier = 1
        _registry().add("exec.tier_up")
        _trace.instant("exec.tier_up", cat="exec", fn=dispatcher.fn.name,
                       calls=st.calls)
