"""CLI for the differential fuzzer.

    python -m repro.fuzz --seed 20260806 --count 300
    python -m repro.fuzz --count 50 --backends c --levels 1,2
    python -m repro.fuzz --count 100 --tiered
    python -m repro.fuzz --count 300 --autovec
    python -m repro.fuzz --count 200 --schedule
    python -m repro.fuzz --replay tests/fuzz/corpus --tiered
    python -m repro.fuzz --count 200 --minimize --save findings/

``--tiered`` (or ``--backends tiered``) adds the tiered execution
policy to the matrix: children run with a low synchronous tier-up
threshold so every program crosses the interp→C tier transition
mid-run, checked bitwise against the plain backends.

Exit status is 0 when every program agreed across the whole
backend × pipeline-level matrix, 1 when any divergence, crash, or
timeout was found (CI runs this as the ``fuzz-smoke`` job).
"""

from __future__ import annotations

import argparse
import sys

from .corpus import load_corpus, replay_entry, save_entry
from .gen import generate_program
from .minimize import minimize
from .runner import (AUTOVEC_CONFIGS, DEFAULT_TIMEOUT, SCHEDULE_CONFIGS,
                     executions_diverge, run_differential, run_program)


def _parse_configs(backends: str, levels: str, tiered: bool,
                   autovec: bool = False, schedule: bool = False) -> list:
    bs = [b.strip() for b in backends.split(",") if b.strip()]
    if tiered and "tiered" not in bs:
        bs.append("tiered")
    lvls = [int(l) for l in levels.split(",") if l.strip()]
    for b in bs:
        if b not in ("interp", "c", "tiered", "sched"):
            raise SystemExit(f"unknown backend {b!r}")
    for lv in lvls:
        if lv not in (0, 1, 2):
            raise SystemExit(f"pipeline level must be 0..2, got {lv}")
    configs = [(b, lv) for b in bs for lv in lvls]
    if autovec:
        # the autovec matrix: both real backends at the vectorizing
        # level, on top of whatever the caller selected, so vectorized
        # executions are compared bitwise against every scalar config
        for cfg in AUTOVEC_CONFIGS:
            if cfg not in configs:
                configs.append(cfg)
    if schedule:
        # the tile-schedule matrix: C with the lenient fuzz schedule
        # applied, at a scalar and the vectorizing level, compared
        # bitwise against every unscheduled config
        for cfg in SCHEDULE_CONFIGS:
            if cfg not in configs:
                configs.append(cfg)
    return configs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.fuzz",
        description="differential fuzzing of the interp and C backends")
    parser.add_argument("--seed", type=int, default=0,
                        help="generation seed (default 0)")
    parser.add_argument("--count", type=int, default=100,
                        help="number of programs (default 100)")
    parser.add_argument("--backends", default="interp,c",
                        help="comma list: interp,c,tiered (default interp,c)")
    parser.add_argument("--tiered", action="store_true",
                        help="also run the tiered execution policy "
                             "(low-threshold sync tier-up) at each level")
    parser.add_argument("--levels", default="0,1",
                        help="comma list of pipeline levels (default 0,1)")
    parser.add_argument("--autovec", action="store_true",
                        help="also run interp and c at level 2 (the "
                             "auto-vectorizing pipeline), compared "
                             "bitwise against the scalar configs")
    parser.add_argument("--schedule", action="store_true",
                        help="also run c with the lenient fuzz tile "
                             "schedule applied (repro.schedule), "
                             "compared bitwise against the "
                             "unscheduled configs")
    parser.add_argument("--timeout", type=float, default=DEFAULT_TIMEOUT,
                        help="per-program watchdog seconds")
    parser.add_argument("--minimize", action="store_true",
                        help="ddmin-shrink each diverging program")
    parser.add_argument("--save", metavar="DIR",
                        help="save (minimized) findings as corpus entries")
    parser.add_argument("--replay", metavar="DIR",
                        help="replay a corpus directory instead of generating")
    parser.add_argument("--show", type=int, metavar="INDEX",
                        help="print the program for (seed, INDEX) and exit")
    opts = parser.parse_args(argv)

    if opts.show is not None:
        program = generate_program(opts.seed, opts.show)
        print(program.source)
        print(f"-- entry: {program.entry}  argsets: {program.argsets}")
        return 0

    configs = _parse_configs(opts.backends, opts.levels, opts.tiered,
                             opts.autovec, opts.schedule)

    if opts.replay:
        failures = 0
        entries = load_corpus(opts.replay)
        for name, program in entries:
            execs = replay_entry(program, configs=configs,
                                 timeout=opts.timeout)
            if executions_diverge(execs):
                failures += 1
                print(f"REGRESSED {name}:")
                for ex in execs:
                    print(f"  {ex.config:10s} {ex.canon()}")
            else:
                print(f"ok {name}")
        print(f"replayed {len(entries)} corpus entries, "
              f"{failures} regressed")
        return 1 if failures else 0

    report = run_differential(opts.seed, opts.count, configs=configs,
                              timeout=opts.timeout)

    if report.divergences and (opts.minimize or opts.save):
        def still_diverges(candidate):
            return executions_diverge(run_program(
                candidate, configs=configs, timeout=opts.timeout))
        for d in report.divergences:
            if opts.minimize:
                d.minimized = minimize(d.program, still_diverges)
            if opts.save:
                path = save_entry(
                    opts.save, f"seed{d.seed}-idx{d.index}",
                    d.minimized or d.program,
                    note="found by python -m repro.fuzz")
                print(f"saved {path}")

    print(report.summary())
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
