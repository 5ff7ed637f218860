"""Execution policies — *what runs* when a Terra function is called.

A policy is asked by the resolver in a :class:`~repro.exec.dispatch.
Dispatcher`'s call slot what to *install* there for the function's calls
to run, and not again until a policy or default-backend switch resets it:

* :class:`AheadOfTimePolicy` — the historical behavior: resolve one
  backend (the default, or a pinned one) and install its compiled handle.
* :class:`TieredPolicy` — install a tier-0 trampoline that interprets
  while the value profiler watches arguments; once a function crosses the
  call-count threshold, schedule a background tier-up through
  :meth:`repro.buildd.service.CompileService.tier_up` that compiles the
  generic C entry — and, when the profile shows stable scalar arguments,
  a guarded respecialized variant with those values spliced as constants
  (:mod:`repro.exec.respec`).  Calls never block on the compiler (unless
  ``sync`` is set — the crossing call then waits for the same job —
  which tests and the fuzzer use for determinism).  The first trampoline
  call to find the build done — a calling thread, never the tier-up
  thread, so a late build cannot undo a policy switch — overwrites the
  slot with the generic handle or the variant's guard; a guard miss is a
  counted deoptimization that runs the generic entry, so observable
  behavior is identical at every tier.
"""

from __future__ import annotations

from typing import Callable, Optional

from .. import trace as _trace
from ..trace import profile as _profile
from ..trace.metrics import registry as _registry
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
    handle — the pre-tiering behavior.  ``backend_name=None`` means the
    process default backend (``REPRO_TERRA_BACKEND`` / autodetect)."""

    def __init__(self, backend_name: Optional[str] = None,
                 name: Optional[str] = None) -> None:
        self.backend_name = backend_name
        self.name = name or (backend_name or "aot")

    def target_for(self, dispatcher, epoch):
        return dispatcher.compiled_handle(self.backend_name)


class TieredPolicy(ExecutionPolicy):
    """Interp first, C when hot, respecialized when predictable."""

    name = "tiered"

    def __init__(self, threshold: int = 10, sync: bool = False,
                 respec: bool = True, min_observations: int = 1) -> None:
        #: tier-0 calls before a tier-up is scheduled
        self.threshold = max(1, int(threshold))
        #: the call that schedules a tier-up waits for it — used by
        #: tests/fuzzing, where determinism beats latency
        self.sync = bool(sync)
        #: build guarded constant-spliced variants from stable profiles
        self.respec = bool(respec)
        self.min_observations = max(1, int(min_observations))

    # -- what the slot holds -------------------------------------------------
    def target_for(self, dispatcher, epoch):
        fn = dispatcher.fn
        st = dispatcher.tier = dispatcher.tier or TierState()
        if st.tier:     # tiered up before an earlier policy switch
            return self._tier1(fn, st)
        interp = dispatcher.compiled_handle("interp")

        def tier0(*args):
            # count and observe the call, start the tier-up at the
            # threshold and, once it has landed, hand the slot to tier 1
            # (to the interpreter, if it failed)
            if not st.failed and st.ticket is None:
                with st.lock:
                    if st.tier == 0 and st.ticket is None and not st.failed:
                        st.calls += 1
                        _profile.note_args(fn, args)
                        if st.calls >= self.threshold:
                            self._begin_tier_up(dispatcher, st)
            ticket = st.ticket
            if st.tier == 0 and ticket is not None and ticket.done():
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
        generic, rs = st.generic, st.respec
        if rs is None:
            return generic
        matches, specialized = rs.matches, rs.handle

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

    # -- tier-up machinery ---------------------------------------------------
    def _stage(self, dispatcher):
        """The tier-up job: compile the generic C entry and, if the value
        profile supports it, a guarded respecialized variant.  Runs on
        buildd's tier-up thread."""
        from . import respec as _respec
        fn = dispatcher.fn
        generic = dispatcher.compiled_handle("c")
        specialized = None
        if self.respec:
            variant, consts = _respec.respecialize(
                fn, _profile.arg_stats(fn), self.min_observations)
            if variant is not None:
                handle = variant.dispatcher.compiled_handle("c")
                specialized = _respec.Respecialized(fn, variant, consts,
                                                    handle)
                _registry().add("exec.respecialize")
                _trace.instant("exec.respecialize", cat="exec", fn=fn.name,
                               variant=variant.name,
                               consts={str(k): v
                                       for k, v in consts.items()})
        return generic, specialized

    def _begin_tier_up(self, dispatcher, st) -> None:
        """Schedule the tier-up, if there is a compiler to run it — and,
        under ``sync``, wait for it.  Called with ``st.lock`` held and
        ``st.ticket`` None."""
        from ..buildd import get_service, toolchain
        if not toolchain.cc_available():    # probed once per process
            return
        st.ticket = get_service().tier_up(
            dispatcher.fn.name, lambda: self._stage(dispatcher))
        if self.sync:
            self._finish_tier_up(dispatcher, st)

    def _finish_tier_up(self, dispatcher, st) -> None:
        """Install a tier-up, waiting for it if it still runs.  Called
        with ``st.lock`` held; a failed build parks the function at tier 0
        permanently (calls stay interpreted, semantics unchanged)."""
        ticket = st.ticket
        if ticket is None or st.tier != 0:
            return
        try:
            st.generic, st.respec = ticket.result()
        except Exception:
            st.failed = True
            st.ticket = None
            _registry().add("exec.tier_up_failed")
            return
        st.ticket = None
        st.tier = 1
        _registry().add("exec.tier_up")
        _trace.instant("exec.tier_up", cat="exec", fn=dispatcher.fn.name,
                       calls=st.calls,
                       respecialized=st.respec is not None)
        hook = dispatcher.on_tier_up
        if hook is not None:
            try:
                hook(dispatcher)
            except Exception:
                pass  # observability hooks must not break execution
