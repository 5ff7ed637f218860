"""The performance ledger: one command, six workloads, every metric by
name with its unit, every output checked.

The whole ledger (what a person runs)::

    python benchmarks/ledger/run.py --seed 20260926 --out DIR [--trace]
                                    [--runs K] [--quick] [--workloads a,b]

runs each workload of ``BENCHMARK.json`` in fresh child processes,
prints the end-to-end table (and with ``--trace`` the per-layer table),
writes ``DIR/ledger.json`` and exits non-zero if any operation failed.

One measured run (what the benchmark driver runs)::

    python benchmarks/ledger/run.py --workload W --seed N --seconds S --trace 0|1

prints, as the last line of standard output, one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.

Comparing two ledgers::

    python benchmarks/ledger/run.py compare A.json B.json

See ``README.md`` beside this file for what every name means.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import (DEFAULT_OUT, DEFAULT_SEED, FAIL_RATIO,  # noqa: E402
                    LEDGER_DIR, SRC_DIR, UNGATED, WORKLOAD_LAYERS, child_env,
                    load_contract, median, pinned_env, scrubbed, spread)

WORKER = os.path.join(LEDGER_DIR, "worker.py")
#: most set-ups per run, each in a fresh child; ``setup_s`` is their median
MAX_SETUPS = 9
#: hard watchdog on one child process (a hung generated kernel)
CHILD_TIMEOUT_S = 170


class WorkerFailed(RuntimeError):
    pass


def run_child(mode: str, workload: str, seed: int, seconds: float,
              scratch: str, extra: tuple = ()) -> dict:
    """One fresh worker in its own temporary directory (its cwd, its
    ``TMPDIR`` and the parent of its private artifact cache), removed
    when the worker has ended."""
    tmp = tempfile.mkdtemp(prefix=f"{workload or mode}-{mode}-", dir=scratch)
    cmd = [sys.executable, WORKER, "--mode", mode, "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--t0", repr(time.time()), *extra]
    try:
        proc = subprocess.run(cmd, cwd=tmp, env=child_env(tmp),
                              capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise WorkerFailed(f"{workload} ({mode}) exceeded the "
                           f"{CHILD_TIMEOUT_S}s watchdog") from None
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if proc.returncode != 0:
        raise WorkerFailed(f"{workload} ({mode}) exited "
                           f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def untraced_run(workload: str, seed: int, seconds: float, scratch: str,
                 quick: bool = False) -> dict:
    """The end-to-end numbers of one run: the set-up and the timed pass
    in one fresh child, and the set-up alone in others, half of them
    before and half after it; ``setup_s`` is the median of them all.
    Two others for a set-up of 0.75 s or more, up to eight for a shorter
    one: a 0.15-second set-up is mostly process start, which varies by a
    fifth from one child to the next."""
    def setup_only() -> float:
        return run_child("setup", workload, seed, seconds, scratch)["setup_s"]
    setups = []
    if not quick:
        setups.append(setup_only())
        others = min(MAX_SETUPS - 1, max(2, 2 * int(0.75 / setups[0])))
        setups += [setup_only() for _ in range(others // 2 - 1)]
    result = run_child("run", workload, seed, seconds, scratch)
    if not quick:
        setups += [setup_only() for _ in range(others // 2)]
    result["setup_s"] = median(setups + [result["setup_s"]])
    return result


def traced_run(workload: str, seed: int, seconds: float, scratch: str,
               out: str) -> dict:
    """The traced pass of one workload: its own per-layer numbers, and
    ``trace-<workload>.json`` in ``out``."""
    return run_child("trace", workload, seed, seconds, scratch,
                     ("--trace-out",
                      os.path.join(out, f"trace-{workload}.json")))


def probe_run(seed: int, scratch: str, skip: list,
              quick: bool = False) -> dict:
    """The layer probe's metrics, with ``failed`` and ``errors`` like a
    workload's result.  ``skip``: workloads whose traced pass ran."""
    probe = run_child("probe", "", seed, 0.0, scratch,
                      ("--skip", ",".join(skip), *(["--quick"] if quick
                                                   else [])))
    ok = probe.pop("ok")
    probe["failed"] = 0 if ok else 1
    probe["errors"] = [] if ok else ["layer probe computed a wrong result"]
    return probe


def scratch_dir(out: str) -> tempfile.TemporaryDirectory:
    """A private directory under ``--out`` for the children of one call,
    removed on the way out."""
    os.makedirs(out, exist_ok=True)
    return tempfile.TemporaryDirectory(prefix="run-", dir=out)


# -- the driver's single run -------------------------------------------------------

def driver_main(args, contract: dict) -> int:
    with scratch_dir(args.out) as scratch:
        if args.trace:
            result = traced_run(args.workload, args.seed, args.seconds,
                                scratch, args.out)
            probe = probe_run(args.seed, scratch, [args.workload])
            result["failed"] += probe.pop("failed")
            result["errors"] += probe.pop("errors")
            result.update(probe)
        else:
            result = untraced_run(args.workload, args.seed, args.seconds,
                                  scratch)
    specs = contract["per_layer" if args.trace else "end_to_end"]
    for err in result["errors"]:
        print(f"ledger: {args.workload}: {err}", file=sys.stderr)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {m["name"]: {"value": result[m["name"]],
                                "unit": m["unit"]} for m in specs},
    }))
    return 0


# -- the whole ledger ----------------------------------------------------------------

def machine_block() -> dict:
    model = "?"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": model}


def _fold(runs: list[dict], specs: list) -> dict:
    """Median, run-to-run spread and the raw values of each metric that
    ``runs`` carry."""
    out = {}
    for m in specs:
        if m["name"] in runs[0]:
            values = [r[m["name"]] for r in runs]
            out[m["name"]] = {"median": median(values),
                              "spread": spread(values),
                              "unit": m["unit"], "values": values}
    return out


def _row(workload: str, metric: str, value: float, unit: str,
         note: str = "") -> None:
    print(f"{workload:<13}{metric:<30}{value:>16.6g} {unit:<8}{note}")


def ledger_main(args, contract: dict) -> int:
    names = [w["name"] for w in contract["workloads"]]
    if args.workloads:
        names = [n for n in names if n in args.workloads.split(",")]
    seconds = 1.0 if args.quick else args.seconds
    load0 = os.getloadavg()[0]
    doc = {"schema": 2, "seed": args.seed, "seconds": seconds,
           "runs": args.runs, "quick": args.quick,
           "machine": machine_block(),
           "env": {"pinned": pinned_env("<tmp>"),
                   "scrubbed": sorted(filter(scrubbed, os.environ))},
           "load_avg": {"start": load0}, "warnings": [], "workloads": {}}
    if load0 > (os.cpu_count() or 1) / 2:
        doc["warnings"].append(
            f"1-minute load average {load0:.2f} is above nproc/2; "
            f"timings will be noisy")
        print(f"WARNING: {doc['warnings'][-1]}", file=sys.stderr)
    rows = contract["end_to_end"] + UNGATED
    gated = {m["name"] for m in contract["end_to_end"]}
    layers = contract["per_layer"]
    own = [m for m in layers if m["name"] in WORKLOAD_LAYERS]
    plain: dict = {name: [] for name in names}
    traced: dict = {name: [] for name in names}
    shared: list[dict] = []       # per run: the layer numbers of every workload
    probes: list[dict] = []
    # round-robin, so that the runs of one workload are spread over the
    # whole session and a slow spell of the host cannot cover them all
    with scratch_dir(args.out) as scratch:
        for run in range(args.runs):
            for name in names:
                print(f"run {run + 1}/{args.runs}: {name}", file=sys.stderr)
                plain[name].append(untraced_run(name, args.seed, seconds,
                                                scratch, args.quick))
            if args.trace:
                layer_run: dict = {}
                for name in names:
                    result = traced_run(name, args.seed, seconds, scratch,
                                        args.out)
                    traced[name].append(result)
                    # the layer numbers its pass yields join the shared
                    # table; what describes the pass itself stays with it
                    layer_run.update({m["name"]: result[m["name"]]
                                      for m in layers if m["name"] in result
                                      and m["name"] not in WORKLOAD_LAYERS})
                # once per run, not per workload: the probe does not depend
                # on which workload it rides with
                probes.append(probe_run(args.seed, scratch, names,
                                        args.quick))
                shared.append({**layer_run, **probes[-1]})
    failures = 0
    for name in names:
        runs = plain[name] + traced[name]
        doc["machine"].update(plain[name][0]["machine"])
        attempted = sum(r["attempted"] for r in plain[name])
        failed = sum(r["failed"] for r in plain[name])
        entry = {
            "end_to_end": _fold(plain[name], rows),
            FAIL_RATIO: failed / attempted,
            "attempted": attempted, "failed": failed,
            "errors": [e for r in runs for e in r["errors"]],
            "samples": plain[name][0]["samples"],
            "tail": {"op_ms": median([r["tail.op_ms"] for r in plain[name]]),
                     "percentile": plain[name][0]["tail.percentile"]},
        }
        print(f"\n== {name}: {entry['samples']['op']} op samples, "
              f"{entry['samples']['floor']} floor samples per run, "
              f"{args.runs} run(s)")
        for m in rows:
            row = entry["end_to_end"][m["name"]]
            _row(name, m["name"], row["median"], m["unit"],
                 f"spread {row['spread']:.3f}"
                 + ("" if m["name"] in gated else "  (not gated)"))
        _row(name, FAIL_RATIO, entry[FAIL_RATIO], "ratio",
             f"({failed} of {attempted})")
        _row(name, "tail.op_ms", entry["tail"]["op_ms"], "ms",
             f"p{entry['tail']['percentile']:g} (not gated)")
        if args.trace:
            entry["per_layer"] = _fold(traced[name], own)
            for m in own:
                _row(name, m["name"],
                     entry["per_layer"][m["name"]]["median"], m["unit"],
                     "(traced pass)")
        for err in entry["errors"]:
            print(f"{name}: FAILED: {err}", file=sys.stderr)
        failures += sum(r["failed"] for r in runs)
        doc["workloads"][name] = entry
    if args.trace:
        for probe in probes:
            failures += probe["failed"]
            for err in probe["errors"]:
                print(f"probe: FAILED: {err}", file=sys.stderr)
        doc["per_layer"] = _fold(shared, layers)
        print("\n== per-layer (every workload)")
        for m in layers:
            if m["name"] in doc["per_layer"]:
                _row("layers", m["name"],
                     doc["per_layer"][m["name"]]["median"], m["unit"])
    doc["load_avg"]["end"] = os.getloadavg()[0]
    path = os.path.join(args.out, "ledger.json")
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
    print(f"\nwrote {path}" + (f"; traces in {args.out}/trace-*.json"
                               if args.trace else ""))
    if failures:
        print(f"{failures} operation(s) failed", file=sys.stderr)
    return 1 if failures else 0


# -- compare -------------------------------------------------------------------------

def compare_main(path_a: str, path_b: str, contract: dict) -> int:
    """One row per workload x end-to-end metric: both medians, B as a
    multiple of A, the bound, and a verdict.  ``unresolved`` replaces
    ``unchanged`` when either side's recorded run-to-run spread exceeds
    the bound — the data cannot tell a change that small from noise.
    Only the metrics ``BENCHMARK.json`` gates (and ``fail_ratio``) set
    the exit status; the ungated ones get the same verdicts in
    brackets."""
    with open(path_a) as fh:
        a = json.load(fh)
    with open(path_b) as fh:
        b = json.load(fh)
    regressions = 0
    gated = {m["name"] for m in contract["end_to_end"]}
    print(f"{'workload':<13}{'metric':<15}{'A':>13}{'B':>13}"
          f"{'B/A':>9}{'bound':>7}  verdict")
    for name in a["workloads"]:
        if name not in b["workloads"]:
            continue
        wa, wb = a["workloads"][name], b["workloads"][name]
        for m in contract["end_to_end"] + UNGATED:
            ra, rb = wa["end_to_end"][m["name"]], wb["end_to_end"][m["name"]]
            ratio = rb["median"] / ra["median"]
            worse = ratio - 1 if m["better"] == "lower" else 1 - ratio
            if worse > m["bound"]:
                verdict = "REGRESSION"
            elif max(ra["spread"], rb["spread"]) > m["bound"]:
                verdict = "unresolved"
            elif worse < -m["bound"]:
                verdict = "improved"
            else:
                verdict = "unchanged"
            if m["name"] not in gated:
                verdict = f"({verdict})"
            regressions += verdict == "REGRESSION"
            print(f"{name:<13}{m['name']:<15}{ra['median']:>13.5g}"
                  f"{rb['median']:>13.5g}{ratio:>8.3f}x{m['bound']:>7.2f}"
                  f"  {verdict}")
        fa, fb = wa[FAIL_RATIO], wb[FAIL_RATIO]
        verdict = "REGRESSION" if fb > fa else "unchanged"
        regressions += fb > fa
        print(f"{name:<13}{FAIL_RATIO:<15}{fa:>13.5g}{fb:>13.5g}"
              f"{'':>9}{0:>7.2f}  {verdict}")
    print(f"(B/A: B's median as a multiple of A's, A = {path_a}; "
          f"bracketed verdicts are not gated)")
    return 1 if regressions else 0


# -- entry ---------------------------------------------------------------------------

def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if not os.path.isdir(os.path.join(SRC_DIR, "repro")):
        print(f"ledger: {SRC_DIR}/repro not found; the benchmark measures "
              f"that package and cannot run without it", file=sys.stderr)
        return 2
    contract = load_contract()
    if argv and argv[0] == "compare":
        if len(argv) != 3:
            print("usage: run.py compare A.json B.json", file=sys.stderr)
            return 2
        return compare_main(argv[1], argv[2], contract)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload",
                    choices=[w["name"] for w in contract["workloads"]],
                    help="run one workload and print one JSON result "
                         "(the benchmark driver's interface)")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float,
                    default=float(contract["run_seconds"]))
    ap.add_argument("--trace", nargs="?", const=1, default=0, type=int,
                    help="also (whole ledger) or instead (--workload) run "
                         "the traced pass and the layer probe")
    ap.add_argument("--out", default=DEFAULT_OUT,
                    help="the only directory anything is written to")
    ap.add_argument("--runs", type=int, default=1,
                    help="repeat each workload; medians and spreads are "
                         "recorded")
    ap.add_argument("--quick", action="store_true",
                    help="one-second passes, one set-up (the self-test)")
    ap.add_argument("--workloads", help="comma-separated subset")
    args = ap.parse_args(argv)
    args.out = os.path.abspath(args.out)
    try:
        if args.workload:
            return driver_main(args, contract)
        return ledger_main(args, contract)
    except WorkerFailed as exc:
        print(f"ledger: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
