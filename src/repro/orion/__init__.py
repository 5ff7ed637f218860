"""Orion — the stencil DSL of paper §6.2.

Public surface: ``image``, ``param``, ``stage``, ``min_``/``max_``/
``clamp``, the schedule policies, and ``compile_pipeline``.
"""

from .lang import (INLINE, LINEBUFFER, MATERIALIZE, POLICIES, Expr, Param,
                   Stage, clamp, image, max_, min_, param, stage)
from .compile import CompiledStencil, compile_pipeline

__all__ = ["image", "param", "stage", "clamp", "min_", "max_",
           "compile_pipeline", "CompiledStencil", "Expr", "Stage", "Param",
           "MATERIALIZE", "INLINE", "LINEBUFFER", "POLICIES"]
