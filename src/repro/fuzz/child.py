"""The crash-isolated fuzzing child: runs generated programs on ONE
backend at ONE pipeline level, streaming machine-readable results.

The parent (:mod:`repro.fuzz.runner`) spawns one child per
(backend, pipeline-level) configuration.  A child never receives program
text in generate mode — it regenerates each program deterministically
from ``(seed, index)`` — so the only protocol is newline-delimited JSON
on stdout:

    {"event": "begin", "index": 17}
    {"event": "done",  "index": 17, "outcomes": [...]}

``begin`` is flushed *before* the program is compiled or run; if the
child then dies (SIGFPE from a miscompiled trap, SIGSEGV, ...), the
parent attributes the crash to the in-flight index and respawns the
child with ``--start`` past it.  This is the property the whole
subsystem is built around: no generated program — including ones that
trap — can take the harness down.

``--one`` mode instead reads a single ``{"source", "entry", "argsets"}``
JSON object on stdin and prints one result line; the minimizer and the
corpus replayer use it to run arbitrary (not generator-derived)
programs under the same isolation.

The pipeline level is pinned with ``REPRO_TERRA_PIPELINE`` *before*
:mod:`repro` is imported, so every unit the child compiles — whatever
backend defaults say — runs at exactly the requested level.

Besides the two real backends, ``--backend tiered`` runs programs
through the **tiered execution policy** with a deliberately low tier-up
threshold (``REPRO_TERRA_TIER_THRESHOLD=2`` unless the caller already
pinned it) and synchronous tier-ups: the first calls of every program
interpret, then the child tiers up to C *in the middle of the argset
loop*.  The differential contract is unchanged (bitwise result equality
against the plain configs), so this config fuzzes exactly the
tier-transition seam that no single backend exercises.

``--backend sched`` runs the C backend with the deterministic *lenient*
tile schedule (:func:`repro.schedule.fuzz_schedule`) applied to every
program before compilation: every loop named ``i``/``i1``/``i2``/``i3``
is blocked by a deliberately non-dividing size, and loops the lowering
cannot prove safe are silently skipped.  Blocking is order-preserving,
so the differential contract stays bitwise equality against every
unscheduled config — this is how the schedule lowering's clamp and
splice paths get fuzzed against arbitrary generated programs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys


def encode_result(value) -> list:
    """A canonical, JSON-able encoding of one primitive call result.

    Floats encode as ``float.hex()`` so comparison is *bitwise* — the
    differential contract is bit-equality, not approximate equality —
    with all NaN payloads canonicalized to ``"nan"`` (the backends may
    legitimately produce different payload bits)."""
    if value is None:
        return ["unit"]
    if isinstance(value, bool):
        return ["bool", int(value)]
    if isinstance(value, int):
        return ["int", value]
    if isinstance(value, float):
        if value != value:
            return ["float", "nan"]
        return ["float", value.hex()]
    if isinstance(value, tuple):
        return ["tuple", [encode_result(v) for v in value]]
    return ["repr", repr(value)]


def encode_args(args) -> list:
    """Encode an argument tuple for transport in strict JSON (floats go
    as hex so ``inf``/``nan``/``-0.0`` survive the round trip)."""
    out = []
    for a in args:
        if isinstance(a, bool):
            out.append(["b", int(a)])
        elif isinstance(a, int):
            out.append(["i", a])
        elif isinstance(a, float):
            out.append(["f", "nan" if a != a else a.hex()])
        else:
            raise TypeError(f"cannot encode fuzz argument {a!r}")
    return out


def decode_args(encoded) -> tuple:
    out = []
    for kind, v in encoded:
        if kind == "b":
            out.append(bool(v))
        elif kind == "i":
            out.append(int(v))
        elif kind == "f":
            out.append(float("nan") if v == "nan" else float.fromhex(v))
        else:
            raise ValueError(f"unknown fuzz argument kind {kind!r}")
    return tuple(out)


def _run_program(source: str, entry: str, argsets, backend_name: str):
    """:func:`_run_once` — and, on the C configurations, once more: staged
    a second time in this process the program must bind from the linker's
    structural memo (or be counted ineligible for it) and produce the same
    outcomes bit for bit.  Anything else is ``fatal`` here, hence a
    divergence in the parent; what the memo said rides along as ``"memo"``
    (with ``REPRO_TERRA_VERIFY_IR`` a hit also re-derives and compares the
    C)."""
    result = _run_once(source, entry, argsets, backend_name)
    if backend_name in ("c", "sched") and "outcomes" in result:
        from repro.trace.metrics import registry
        before = registry().counters("spec.memo.")
        again = _run_once(source, entry, argsets, backend_name)
        moved = [name[len("spec.memo."):] for name, count
                 in registry().counters("spec.memo.").items()
                 if count != before.get(name, 0)]
        if again != result or len(moved) != 1 \
                or not moved[0].startswith(("hits", "ineligible.")):
            return {"fatal": ["MemoDivergence",
                              f"second definition: {moved} {again}"]}
        result["memo"] = moved[0]
    return result


def _run_once(source: str, entry: str, argsets, backend_name: str):
    """Compile ``entry`` on the selected backend and run every argset.

    Returns the program outcome: ``{"outcomes": [...]}`` with one entry
    per argset, or ``{"fatal": [type, message]}`` when the program fails
    to specialize/typecheck/compile at all."""
    from repro import get_backend, terra
    from repro.errors import TrapError
    from repro.fuzz.gen import fuzz_env

    try:
        ns = terra(source, env=fuzz_env())
        # terra() returns the function itself for single-definition
        # sources and a Namespace for multi-definition ones
        try:
            fn = ns[entry]
        except TypeError:
            fn = ns
        if backend_name == "tiered":
            # calls route through the tiered policy (pinned via the
            # environment in main()); force the tier-0 compile now so a
            # specialize/typecheck failure is a "fatal" here, exactly
            # like the plain configs, not a per-argset "error"
            fn.dispatcher.compiled_handle("interp")
            handle = fn
        elif backend_name == "sched":
            from repro.schedule import apply, fuzz_schedule
            apply(fn, fuzz_schedule())
            handle = fn.compile(get_backend("c"))
        else:
            handle = fn.compile(get_backend(backend_name))
    except Exception as exc:  # compile-time failure: a finding in itself
        return {"fatal": [type(exc).__name__, str(exc)]}
    outcomes = []
    for args in argsets:
        try:
            outcomes.append({"ok": encode_result(handle(*args))})
        except TrapError as exc:
            outcomes.append({"trap": str(exc)})
        except Exception as exc:
            outcomes.append({"error": [type(exc).__name__, str(exc)]})
    return {"outcomes": outcomes}


def _emit(obj) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="repro.fuzz.child")
    parser.add_argument("--backend", required=True,
                        choices=["interp", "c", "tiered", "sched"])
    parser.add_argument("--level", required=True, type=int,
                        choices=[0, 1, 2])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--count", type=int, default=0)
    parser.add_argument("--start", type=int, default=0)
    parser.add_argument("--one", action="store_true",
                        help="run one JSON-encoded program from stdin")
    opts = parser.parse_args(argv)

    # pin the pipeline level before repro is imported anywhere
    os.environ["REPRO_TERRA_PIPELINE"] = str(opts.level)
    if opts.backend == "tiered":
        # force tier-up in the middle of every program's argset loop:
        # a low threshold, completed inline so the transition is
        # deterministic (and crashes stay attributable to one index)
        os.environ["REPRO_TERRA_EXEC_POLICY"] = "tiered"
        os.environ["REPRO_TERRA_TIER_SYNC"] = "1"
        os.environ.setdefault("REPRO_TERRA_TIER_THRESHOLD", "2")

    if opts.one:
        spec = json.loads(sys.stdin.read())
        argsets = [decode_args(a) for a in spec["argsets"]]
        _emit(_run_program(spec["source"], spec["entry"], argsets,
                           opts.backend))
        return 0

    from repro.fuzz.gen import generate_program
    for index in range(opts.start, opts.count):
        _emit({"event": "begin", "index": index})
        program = generate_program(opts.seed, index)
        result = _run_program(program.source, program.entry,
                              program.argsets, opts.backend)
        result["event"] = "done"
        result["index"] = index
        _emit(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
