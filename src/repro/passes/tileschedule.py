"""The ``schedule`` pass: lower attached Schedule directives onto typed IR.

Runs once per function *before* any pipeline level (the manager calls it
through ``_ensure_scheduled`` under the pipeline lock), so every level —
including level 0, which runs no optimization passes — sees the
scheduled tree and the per-level snapshots stay consistent.  Registered
as a normal pass so it gets IR dumping (``REPRO_TERRA_DUMP_IR=schedule``),
verifier integration, and ``pass.schedule`` timing for free.
"""

from __future__ import annotations

from .manager import Pass, register_pass


@register_pass
class SchedulePass(Pass):
    """Apply ``typed.func.schedule`` (a :class:`repro.schedule.Schedule`)."""

    name = "schedule"

    def run(self, typed) -> bool:
        if getattr(typed, "_sched_lowered", False):
            return False
        typed._sched_lowered = True
        func = getattr(typed, "func", None)
        schedule = getattr(func, "schedule", None)
        if not schedule:
            return False
        from ..schedule.lower import lower_schedule
        return lower_schedule(typed, schedule)
