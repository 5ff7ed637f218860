"""The ``schedule`` pass: lower attached Schedule directives onto typed IR.

:func:`repro.passes.pipelined_body` runs it on a function's first
request, under the pipeline lock and *before* any level exists, so every
level — including level 0, which runs no optimization passes — is built
from the scheduled tree.  It is the one pass handed the typechecked tree
itself.  Registered as a normal pass so it gets IR dumping
(``REPRO_TERRA_DUMP_IR=schedule``), verifier integration, and
``pass.schedule`` timing for free.
"""

from __future__ import annotations

from .manager import Pass, register_pass


@register_pass
class SchedulePass(Pass):
    """Apply ``typed.func.schedule`` (a :class:`repro.schedule.Schedule`)."""

    name = "schedule"

    def run(self, typed) -> bool:
        from ..schedule.lower import lower_schedule
        return lower_schedule(typed, typed.func.schedule)
