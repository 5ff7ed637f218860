"""Execution policies — *what runs* when a Terra function is called.

A policy is asked by the resolver in a :class:`~repro.exec.dispatch.
Dispatcher`'s call slot what to *install* there for the function's calls
to run, and not again until a policy or default-backend switch resets it:

* :class:`AheadOfTimePolicy` — resolve one backend (the default, or a
  pinned one) and install its compiled handle.
* :class:`TieredPolicy` — install a tier-0 trampoline that interprets
  while the function's :class:`~repro.exec.dispatch.TierState` profiles
  argument values.  The call that crosses the threshold stages the
  tier-up itself: ``dispatcher.compile_async("c")`` for the generic
  entry and — when the profile shows stable scalar arguments — the same
  for a variant with those values spliced as constants
  (:mod:`repro.exec.respec`); typecheck, passes and emission run on that
  call, gcc on the buildd pool like every other compile.  Calls never
  wait for gcc (unless ``sync`` is set — the crossing call then joins
  its own tickets — which tests and the fuzzer use for determinism).
  The first trampoline call to find the tickets done binds them and
  overwrites the slot with the generic handle or the variant's guard,
  carrying the trampoline's epoch, so a late build cannot undo a policy
  switch; a guard miss is a counted deoptimization that runs the generic
  entry, so observable behavior is identical at every tier.
"""

from __future__ import annotations

from typing import Callable, Optional

from .. import trace as _trace
from ..trace.metrics import registry as _registry
from . import respec as _respec
from .dispatch import TierState


class ExecutionPolicy:
    """Decides what occupies the call slot of ``dispatcher.fn``."""

    name = "abstract"

    def target_for(self, dispatcher, epoch: int) -> Callable:
        """What the resolver installs into ``dispatcher``'s slot; a target
        that replaces itself later does so with
        ``dispatcher.set_target(next, epoch)``."""
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

    def target_for(self, dispatcher, epoch):
        return dispatcher.compiled_handle(self.backend_name).entry


class TieredPolicy(ExecutionPolicy):
    """Interp first, C when hot, respecialized when predictable."""

    name = "tiered"

    def __init__(self, threshold: int = 10, sync: bool = False,
                 respec: bool = True, min_observations: int = 1) -> None:
        #: tier-0 calls before the tier-up is staged
        self.threshold = max(1, int(threshold))
        #: the call that stages a tier-up waits for it — used by
        #: tests/fuzzing, where determinism beats latency
        self.sync = bool(sync)
        #: build guarded constant-spliced variants from stable profiles
        self.respec = bool(respec)
        self.min_observations = max(1, int(min_observations))

    # -- what the slot holds -------------------------------------------------
    def target_for(self, dispatcher, epoch):
        fn = dispatcher.fn
        st = dispatcher.tier = dispatcher.tier or TierState(
            len(fn.param_types))
        if st.tier:     # tiered up before an earlier policy switch
            return self._tier1(fn, st)
        interp = dispatcher.compiled_handle("interp")

        def tier0(*args):
            # count and observe a call that will run (one of the wrong
            # arity raises below), stage the tier-up at the threshold and,
            # once it is built, hand the slot to tier 1 (to the
            # interpreter, if the function is parked)
            if st.ticket is None and not st.failed:
                with st.lock:
                    if (st.tier == 0 and st.ticket is None and not st.failed
                            and len(args) == len(st.profile)):
                        st.calls += 1
                        st.observe(args)
                        if st.calls >= self.threshold:
                            self._begin_tier_up(dispatcher, st)
            tickets = st.ticket
            if tickets and all(t.done() for t in tickets):
                with st.lock:
                    self._finish_tier_up(dispatcher, st)
            if st.tier:
                return dispatcher.set_target(self._tier1(fn, st),
                                             epoch)(*args)
            if st.failed:
                dispatcher.set_target(interp, epoch)
            return interp(*args)

        return tier0

    @staticmethod
    def _tier1(fn, st) -> Callable:
        """The slot at tier 1: the generic compiled entry or, with a
        respecialized variant, its entry guard."""
        generic, rs = st.generic.entry, st.respec
        if rs is None:
            return generic
        matches, specialized = rs.matches, rs.handle.entry

        def guarded(*args):
            if matches(args):
                rs.hits += 1
                return specialized(*args)
            with st.lock:
                st.deopts += 1
            _registry().add("exec.deopt")
            _trace.instant("exec.deopt", cat="exec", fn=fn.name)
            return generic(*args)

        return guarded

    # -- the tier-up: two ordinary compile tickets ---------------------------
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
        fn = dispatcher.fn
        try:
            with _trace.span(f"exec.tier_up:{fn.name}", cat="exec"):
                generic = dispatcher.compile_async("c")
                variant = self.respec and _respec.stage_variant(
                    fn, st.profile, self.min_observations)
        except Exception:
            return self._park(st)
        st.ticket = (generic, variant) if variant else (generic,)
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
        """Bind the tier-up's tickets — waiting for any that still build —
        and enter tier 1.  Called with ``st.lock`` held."""
        if not st.ticket or st.tier != 0:
            return
        try:
            built = [t.result() for t in st.ticket]
        except Exception:
            return self._park(st)
        st.generic, st.respec = (*built, None)[:2]   # no variant: None
        st.ticket = None
        st.tier = 1
        _registry().add("exec.tier_up")
        _trace.instant("exec.tier_up", cat="exec", fn=dispatcher.fn.name,
                       calls=st.calls,
                       respecialized=st.respec is not None)
