"""repro.fuzz — differential fuzzing of the two execution backends.

The paper's central claim is that staged Terra code runs with C semantics
regardless of how it is evaluated.  This package tests that claim the way
dual-implementation compilers are usually validated (Csmith-style random
differential testing):

* :mod:`repro.fuzz.gen` — a seeded, *typed* random program generator over
  the implemented Terra subset (arithmetic/compare/logical operators on
  every primitive type, casts, assignment, if/while/repeat/for, nested
  blocks, multi-function programs) plus boundary-biased argument sets;
* :mod:`repro.fuzz.child` — the in-subprocess executor: compiles and runs
  the generated programs on one backend at one pipeline level, streaming
  machine-readable results;
* :mod:`repro.fuzz.runner` — the differential executor: runs every
  program on the interp and C backends at pipeline levels NONE/CANON
  in crash-isolated subprocesses, so a trapping or crashing program is
  recorded as a *finding* instead of killing the harness;
* :mod:`repro.fuzz.minimize` — a delta-debugging minimizer that shrinks a
  diverging program to a minimal reproducer;
* :mod:`repro.fuzz.corpus` — saved reproducers, replayed as regression
  tests from ``tests/fuzz/corpus``;
* ``python -m repro.fuzz`` — the CLI (seed, count, backends, levels,
  minimization, corpus replay) with a summary report wired into the
  buildd-style telemetry (``repro.buildd.stats``).

Every divergence this subsystem found in the seed tree is fixed and kept
as a corpus entry; see docs/LANGUAGE.md "Defined semantics".
"""

from .gen import (FuzzProgram, fuzz_env, generate_argsets,  # noqa: F401
                  generate_program)
from .runner import (Divergence, Execution, FuzzReport,  # noqa: F401
                     run_differential)
from .minimize import minimize  # noqa: F401
from .corpus import (load_corpus, replay_entry,  # noqa: F401
                     save_entry)

__all__ = [
    "FuzzProgram", "fuzz_env", "generate_program", "generate_argsets",
    "Execution", "Divergence", "FuzzReport", "run_differential",
    "minimize", "load_corpus", "replay_entry", "save_entry",
]
