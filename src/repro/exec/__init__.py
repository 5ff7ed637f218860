"""repro.exec — the execution-policy layer.

Every :class:`~repro.core.function.TerraFunction` call from Python runs
the call slot of its per-function :class:`~repro.exec.dispatch.Dispatcher`,
into which the *process-wide execution policy* chosen here installs — on
the first call, and on the first after any switch — what to run:

=========== =================================================================
``aot``     compile on first call on the default backend (the default
            policy)
``c``       ahead-of-time on the C backend, regardless of the default
``interp``  ahead-of-time on the reference interpreter
``tiered``  start interpreted, count calls; the call that crosses the
            threshold stages the C compile (gcc runs on the buildd pool),
            and the slot then holds the handle ``c`` would install
=========== =================================================================

Select with ``REPRO_TERRA_EXEC_POLICY`` (read once, at first use), or at
runtime with :func:`set_policy` / the :func:`policy_override` context
manager; a switch resets every installed slot, so warm functions follow
it from their next call.  Tiered knobs: ``REPRO_TERRA_TIER_THRESHOLD``
(tier-0 calls before tier-up, default 10) and ``REPRO_TERRA_TIER_SYNC``
(the crossing call waits for gcc — determinism for tests/fuzzing), read when
``tiered`` is built by name.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Optional, Union

from .. import config
from .dispatch import Dispatcher, TierState, reset_slots
from .policy import AheadOfTimePolicy, ExecutionPolicy, TieredPolicy

__all__ = [
    "AheadOfTimePolicy", "Dispatcher", "ExecutionPolicy", "TieredPolicy",
    "TierState", "current_policy", "make_policy", "policy_override",
    "set_policy",
]

POLICY_NAMES = ("aot", "c", "interp", "tiered")

_current: Optional[ExecutionPolicy] = None


def make_policy(name: str) -> ExecutionPolicy:
    """Build a fresh policy object from its name."""
    if name in ("", "aot", "default"):
        return AheadOfTimePolicy()
    if name in ("c", "interp"):
        return AheadOfTimePolicy(name, name=name)
    if name == "tiered":
        return TieredPolicy(
            threshold=config.get("REPRO_TERRA_TIER_THRESHOLD"),
            sync=config.get("REPRO_TERRA_TIER_SYNC"))
    raise ValueError(f"unknown execution policy {name!r} "
                     f"(available: {', '.join(POLICY_NAMES)})")


def current_policy() -> ExecutionPolicy:
    """The active policy; first use reads ``REPRO_TERRA_EXEC_POLICY``."""
    global _current
    if _current is None:
        _current = make_policy(config.get("REPRO_TERRA_EXEC_POLICY"))
    return _current


def set_policy(policy: Union[str, ExecutionPolicy]) -> ExecutionPolicy:
    """Replace the process-wide policy (by name or instance); returns it."""
    global _current
    if isinstance(policy, str):
        policy = make_policy(policy)
    if not isinstance(policy, ExecutionPolicy):
        raise TypeError(f"not an execution policy: {policy!r}")
    _current = policy
    reset_slots()
    return policy


@contextmanager
def policy_override(policy: Union[str, ExecutionPolicy]):
    """Temporarily switch the execution policy::

        with exec.policy_override("tiered"):
            fn(...)  # tier-0 interp, may tier up

    Yields the active policy object (handy for asserting on its knobs).
    """
    global _current
    prev = _current
    active = set_policy(policy)
    try:
        yield active
    finally:
        _current = prev
        reset_slots()
