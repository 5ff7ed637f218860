"""The pass-managed mid-level IR pipeline.

Every backend obtains its IR through this package: a typechecked tree is
read-only, and :func:`pipelined_body` derives each pipeline level from it
once per function — a clone run through that level's passes — so the C
emitter and the reference interpreter read the same level (the one that
ships, ``PIPELINE_CANON``) and share its body, in any compile order.
The linker builds the level a compile is about to read
(:func:`run_function_pipeline`) over each member of a connected component
before handing the component to a backend.

See :mod:`repro.passes.manager` for the environment switches
(``REPRO_TERRA_PIPELINE``, ``REPRO_TERRA_DISABLE_PASSES``,
``REPRO_TERRA_DUMP_IR``, ``REPRO_TERRA_VERIFY_IR``).
"""

from .manager import (  # noqa: F401
    LEVEL_PASSES,
    PIPELINE_CANON,
    PIPELINE_NONE,
    PIPELINE_VEC,
    Pass,
    PassManager,
    available_passes,
    create_pass,
    pipeline_override,
    pipelined_body,
    register_pass,
    resolve_level,
    run_function_pipeline,
)
from .verify import verify_function  # noqa: F401

__all__ = [
    "LEVEL_PASSES",
    "PIPELINE_CANON",
    "PIPELINE_NONE",
    "PIPELINE_VEC",
    "Pass",
    "PassManager",
    "available_passes",
    "create_pass",
    "pipeline_override",
    "pipelined_body",
    "register_pass",
    "resolve_level",
    "run_function_pipeline",
    "verify_function",
]
