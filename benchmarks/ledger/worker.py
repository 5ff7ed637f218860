"""One measured child process of the ledger.

``run.py`` starts a fresh ``worker.py`` for every set-up and every timed
pass, with a scrubbed environment, a private artifact cache and its
private temporary directory as the working directory.  The last line of
standard output is one JSON object.

Modes: ``run`` (set-up, then the untraced timed section), ``setup``
(set-up only — ``setup_s`` is the median of several), ``trace`` (set-up,
then alternating traced and untraced blocks with driver-side spans),
``probe`` (the layer probe, see ``probe.py``) and ``prestage`` (the
previous child ``stage_cached``'s set-up needs).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time


def machine_info() -> dict:
    import platform

    import numpy as np
    from repro.buildd import toolchain
    blas = np.__config__.show(mode="dicts").get(
        "Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "cc_identity": toolchain.cc_identity(),
        "cc": str(toolchain.default_toolchain()),
    }


def summarize(wl, rec) -> dict:
    """The numbers of one timed pass, by ISSUE 11's definitions:
    ``op_p50_ms`` the median op, ``ops_per_s`` ops ÷ the wall time of all
    op blocks (closed loop, so every stall and GC pause inside a block
    counts), ``vs_floor`` median op ÷ median floor op of the same run.
    ``op_p05_ms``, the 5th percentile of the per-op wall times, estimates
    the op on an undisturbed machine (interference only ever adds time)."""
    from common import median, percentile, tail
    ordered = sorted(rec.op)
    op_p50 = median(ordered)
    tail_s, tail_pct = tail(ordered)
    return {
        "op_p50_ms": op_p50 * 1e3,
        "ops_per_s": rec.ops / rec.op_wall,
        "vs_floor": op_p50 / median(rec.floor),
        "op_p05_ms": percentile(ordered, 0.05) * 1e3,
        "peak_rss_mb": wl.peak_rss_mb(),
        "tail.op_ms": tail_s * 1e3,
        "tail.percentile": tail_pct,
        "stage.first_op_extra_ms": (rec.op[0] - op_p50) * 1e3,
        "samples": {"op": len(rec.op), "floor": len(rec.floor)},
    }


def run_workload(args) -> dict:
    from spans import NULL, Tracer
    from workloads import WORKLOADS, Recorder, measure
    wl = WORKLOADS[args.workload](args.seed, args.seconds, os.getcwd())
    out: dict = {}
    try:
        wl.setup()
        out["setup_s"] = time.time() - args.t0
        if args.mode == "setup":
            return out
        plain = Recorder(wl.op_timeout_s)
        if args.mode == "run":
            wl.begin()
            measure(wl, [plain], [NULL])
            recorders = [plain]
        else:
            tracer, traced = Tracer(), Recorder(wl.op_timeout_s)
            wl.begin(0.25)
            seen = measure(wl, [plain, traced], [NULL, tracer])
            recorders = [plain, traced]
        wl.finish()
    finally:
        wl.teardown()
    out.update(summarize(wl, plain))
    out["attempted"] = sum(r.attempted for r in recorders)
    out["failed"] = sum(r.failed for r in recorders)
    out["pass_ratio"] = 1.0 - out["failed"] / out["attempted"]
    out["errors"] = [e for r in recorders for e in r.errors]
    out["machine"] = machine_info()
    if args.mode == "trace":
        from common import median
        submitted, hits, compiles = seen
        out["buildd.compiles"] = compiles / plain.ops
        out["buildd.hit_ratio"] = hits / submitted if submitted else 0.0
        out["trace.overhead_ratio"] = median(traced.op) / median(plain.op)
        out["trace.spans"] = len(tracer.spans)
        out.update(wl.layer_metrics(plain))
        tracer.write(args.trace_out, f"ledger:{wl.name}")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", required=True,
                    choices=["run", "setup", "trace", "probe", "prestage"])
    ap.add_argument("--workload", default="")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--t0", type=float, default=time.time(),
                    help="epoch seconds at which the parent started us")
    ap.add_argument("--trace-out")
    ap.add_argument("--quick", action="store_true")
    ap.add_argument("--skip", default="",
                    help="probe: workloads whose traced pass already "
                         "gave their layer numbers")
    ap.add_argument("--count", type=int, default=0,
                    help="prestage: bundles to stage")
    ap.add_argument("--full", action="store_true",
                    help="prestage: javalike members too")
    args = ap.parse_args(argv)
    if args.mode == "prestage":
        from workloads import prestage
        result = prestage(args.seed, args.count, args.full)
    elif args.mode == "probe":
        from probe import run_probe
        result = run_probe(args.seed, args.quick,
                           set(filter(None, args.skip.split(","))))
    else:
        result = run_workload(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
