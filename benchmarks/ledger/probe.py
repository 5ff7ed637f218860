"""The layer probe: one fixed sequence of driver-side measurements that
gives every layer of the stack a number.

A ledger run with ``--trace`` runs it once, in a fresh child with an
empty private artifact cache, beside the traced passes of the workloads;
the driver's one-workload run (``--workload W --trace 1``) runs it after
``W``'s traced pass.  Each measurement wraps a call into one layer's
public function; nothing inside :mod:`repro` is instrumented.

* **lifecycle** — the stepped define->first-result of :mod:`bundle`
  (string, genkernel, javalike and ``@terra`` members), one span per
  layer, repeated on fresh constants; per-pass timings and ``vec.*``
  counters are read from the process metrics registry.
* **call path** — raw ctypes, bound handle, dispatcher, pointer
  marshalling, tiered and interpreter calls on the ``call_warm`` kernels.
* **cross-process cache** — a previous child stages whole bundles; how
  many of their units a re-staging here finds in the artifact cache.
* **kernels, serve** — the layer numbers of ``gemm``, ``stencil`` and
  ``serve`` come from those workloads' traced passes; the probe runs a
  short pass only of the ones no traced pass covered.
* **imports** — fresh ``python -c`` children, net of interpreter start.
"""

from __future__ import annotations

import itertools
import os
import subprocess
import sys
import time

import numpy as np

from common import median
from spans import NULL, Tracer

perf = time.perf_counter


def _ms(seconds: float) -> float:
    return seconds * 1e3


def _us(seconds: float) -> float:
    return seconds * 1e6


# -- imports ---------------------------------------------------------------------

def import_costs(repeats: int) -> dict:
    """Wall time of a fresh interpreter importing numpy / repro, net of a
    fresh interpreter doing nothing (median of ``repeats``)."""
    def fresh(code: str) -> float:
        times = []
        for _ in range(repeats):
            t0 = perf()
            subprocess.run([sys.executable, "-c", code], check=True)
            times.append(perf() - t0)
        return median(times)
    base = fresh("pass")
    return {"import.numpy_ms": _ms(fresh("import numpy") - base),
            "import.repro_ms": _ms(fresh("import repro") - base)}


# -- lifecycle ---------------------------------------------------------------------

#: span name -> the per-layer metric its self time feeds
STEP_METRICS = {
    "core.parse": "core.parse_ms",
    "autotune.genkernel": "autotune.genkernel_ms",
    "lib.javalike": "lib.javalike_ms",
    "frontend.lower": "frontend.lower_ms",
    "core.typecheck": "core.typecheck_ms",
    "passes.pipeline": "passes.pipeline_ms",
    "backend_c.emit": "backend_c.emit_ms",
    "buildd.compile": "buildd.gcc_ms",
}
PASSES = ("fold", "simplify", "dce", "licm", "vectorize", "schedule")


def _pass_seconds() -> dict:
    from repro.trace.metrics import registry
    timings = registry().timings("pass.")
    return {p: timings.get(f"pass.{p}", {}).get("seconds", 0.0)
            for p in PASSES}


def _scheduled_twin(k: float):
    """A blocked + vectorized saxpy, so the ``schedule`` lowering pass has
    work to time (no bundle member carries a schedule)."""
    from repro import terra
    from repro.schedule import Block, Schedule, Vectorize, apply
    fn = terra(f"""
    terra saxpy(n : int64, a : float, x : &float, y : &float) : {{}}
      for i = 0, n do y[i] = a * x[i] + y[i] * {k!r}f end
    end
    """)
    return apply(fn, Schedule([Block("i", 512), Vectorize("i", 8)]))


def lifecycle(seed: int, repeats: int) -> dict:
    """``repeats`` stepped probe sets and as many one-shot twins; every
    time is the median over the sets of the sum over a set's members."""
    import repro
    import repro.buildd as buildd
    from repro.core.lexer import tokenize
    from repro.passes import PIPELINE_VEC
    from repro.trace.metrics import registry

    import bundle as B

    inputs = B.Inputs(seed)
    level = repro.default_backend().pipeline_level
    draws = list(itertools.islice(B.draw_bundles(seed, inputs), 2 * repeats))
    per_set: list[dict] = []
    ok = True
    counts: dict = {}
    for r in range(repeats):
        stepped, twin = draws[2 * r], draws[2 * r + 1]
        k = 1.0 + (r + 1) / 64.0
        tracer = Tracer()
        tracer.next_op()
        row = {"hit": 0.0}
        counts = {"core.parse_tokens": 0, "core.component_fns": 0,
                  "passes.ir_nodes_in": 0, "passes.ir_nodes_out": 0,
                  "backend_c.c_bytes": 0, "buildd.so_bytes": 0}
        passes0 = _pass_seconds()
        fns = []
        with tracer.span("probe.set", "op") as root:
            for m in [B.string_member(k, inputs)] + stepped.members:
                fn, good, facts = B.run_member(m, tracer)
                ok &= good
                fns.append(fn)
                counts["core.component_fns"] += facts["component_fns"]
                counts["backend_c.c_bytes"] += facts["c_bytes"]
                counts["buildd.so_bytes"] += os.path.getsize(facts["so"])
                if m.source:
                    counts["core.parse_tokens"] += len(tokenize(m.source))
                # the same unit again is a pure cache hit
                t0 = perf()
                buildd.compile(facts["source"])
                row["hit"] += perf() - t0
        by_name = tracer.self_time_by_name()
        for span_name, metric in STEP_METRICS.items():
            row[metric] = by_name.get(span_name, 0.0)
        row["core.specialize_ms"] = (by_name["core.specialize+parse"]
                                     - by_name["core.parse"])
        row["backend_c.bind_ms"] = by_name["backend_c.bind+hit"] - row["hit"]
        row["attributed"] = sum(c.duration for c in root.children)
        delta = _pass_seconds()
        for p in ("fold", "simplify", "dce"):
            row[f"passes.{p}_ms"] = delta[p] - passes0[p]
        for fn in fns:
            counts["passes.ir_nodes_in"] += len(
                fn.get_optimized_ir(0).splitlines())
            counts["passes.ir_nodes_out"] += len(
                fn.get_optimized_ir(level).splitlines())
        # the passes the C backend's level leaves to gcc, and the
        # schedule lowering: timed on the same functions / a scheduled twin
        passes0 = _pass_seconds()
        for fn in fns:
            B.pipeline_component(fn, PIPELINE_VEC)
        kernel = _scheduled_twin(k)
        x = np.arange(2048, dtype=np.float32)
        y = np.ones(2048, dtype=np.float32)
        kernel(2048, 2.0, x, y)
        ok &= bool(np.allclose(y, 2.0 * x + np.float32(k)))
        delta = _pass_seconds()
        for p in ("licm", "vectorize", "schedule"):
            row[f"passes.{p}_ms"] = delta[p] - passes0[p]
        # the one-shot twin: what the same set costs unstepped
        t0 = perf()
        for m in [B.string_member(k + 0.5, inputs)] + twin.members:
            _, good, _ = B.run_member(m, NULL)
            ok &= good
        row["oneshot"] = perf() - t0
        per_set.append(row)

    def mid(key: str) -> float:
        return median([row[key] for row in per_set])

    out = {name: _ms(mid(name)) for name in per_set[0]
           if name.endswith("_ms")}
    out["buildd.cache_hit_ms"] = _ms(mid("hit"))
    out["stage.attributed_ratio"] = median(
        [row["attributed"] / row["oneshot"] for row in per_set])
    out.update(counts)
    vec = registry().counters("vec.")
    out["passes.vec_loops"] = vec.get("vec.loops", 0)
    out["passes.vec_bailouts"] = vec.get("vec.bailouts", 0)
    out["ok"] = ok
    return out


# -- call path ---------------------------------------------------------------------

def call_path(seed: int, repeats: int) -> dict:
    """Per-call microseconds on the ``call_warm`` kernels, each the
    median of ``repeats`` batches."""
    from repro import terra
    from repro.exec import TieredPolicy, policy_override

    import bundle as B
    from workloads import CallWarm, Recorder

    wl = CallWarm(seed, 0.0, os.getcwd())
    wl.BLOCK = repeats
    wl.setup()
    rec = Recorder(wl.op_timeout_s)
    wl.op_block(rec)
    wl.floor_block(rec)
    n = wl.BATCH

    def per_call(call, *args) -> float:
        times = []
        for _ in range(repeats):
            t0 = perf()
            for _ in range(n):
                call(*args)
            times.append((perf() - t0) / n)
        return median(times)

    hadd, haxpy = wl.add.compile(), wl.axpy.compile()
    invoke = per_call(hadd, 1, 2)
    invoke_ptr = per_call(haxpy, B.AXPY_N, 0.0, wl.x, wl.y)
    dispatched = per_call(wl.add, 1, 2)
    tiered = terra(B.ADD_SRC)
    with policy_override(TieredPolicy(threshold=3, sync=True)):
        for i in range(8):
            tiered(i, 1)
        tier = tiered.dispatcher.tier_info()["tier"]
        tiered_call = per_call(tiered, 1, 2)
    interp = terra(B.ADD_SRC)
    with policy_override("interp"):
        ok = interp(1, 2) == 3
        interp_call = per_call(interp, 1, 2)
    return {
        "floor.ctypes_call_us": _us(median(rec.floor)),
        "backend_c.invoke_us": _us(invoke),
        "exec.dispatch_us": _us(dispatched - invoke),
        "ffi.marshal_ptr_us": _us(invoke_ptr - invoke),
        "exec.call_scalar_us": _us(median([h[0] for h in wl.halves])),
        "exec.call_ptr_us": _us(median([h[1] for h in wl.halves])),
        "exec.tiered_call_us": _us(tiered_call),
        "backend_interp.call_us": _us(interp_call),
        "ok": ok and tier == 1 and not rec.failed,
    }


# -- cross-process cache ---------------------------------------------------------

def cross_process_hits(seed: int, count: int = 2) -> dict:
    """A previous child stages ``count`` whole bundles (javalike members
    too); re-staging them here, how many units does the artifact cache
    serve?  1.0 means a second process never runs gcc for code a first
    one built; today the javalike units miss (``bundle.cacheable``)."""
    import bundle as B
    from workloads import buildd_counts, run_prestage

    seed += 1       # not the bundles the lifecycle has just compiled here
    run_prestage(seed, count, full=True)
    inputs = B.Inputs(seed)
    before = buildd_counts()
    ok = True
    for bundle in itertools.islice(B.draw_bundles(seed, inputs), count):
        for m in bundle.members:
            _, good, _ = B.run_member(m, NULL)
            ok &= good
    submitted, hits, _ = (now - then for now, then
                          in zip(buildd_counts(), before))
    return {"buildd.xproc_hit_ratio": hits / submitted, "ok": ok}


# -- the workloads' own layers -----------------------------------------------------

def short_pass(name: str, seed: int, seconds: float) -> dict:
    """The layer numbers of workload ``name`` from a short untraced pass
    of it — for the driver's one-workload run, where no traced pass of
    ``name`` has measured them."""
    from workloads import WORKLOADS, Recorder, measure
    wl = WORKLOADS[name](seed, seconds, os.getcwd())
    rec = Recorder(wl.op_timeout_s)
    try:
        wl.setup()
        wl.begin()
        measure(wl, [rec], [NULL])
        wl.finish()
    finally:
        wl.teardown()
    return {**wl.layer_metrics(rec), "ok": not rec.failed}


# -- the probe ---------------------------------------------------------------------

#: workloads whose own pass yields layer numbers (``Workload.layer_metrics``)
#: that nothing else in the probe measures
OWN_LAYERS = ("gemm", "stencil", "serve")


def run_probe(seed: int, quick: bool, skip: set) -> dict:
    """Every per-layer metric that is not specific to one workload's
    traced pass.  ``skip`` names the workloads of :data:`OWN_LAYERS`
    whose traced pass has already measured their layers."""
    from repro.buildd import toolchain
    import repro
    t0 = perf()
    toolchain.cc_identity()
    repro.default_backend()
    out = {"buildd.toolchain_probe_ms": _ms(perf() - t0)}
    repeats = 1 if quick else 3
    seconds = 0.3 if quick else 1.0
    parts = [import_costs(repeats), lifecycle(seed, repeats),
             call_path(seed, 5 if quick else 25), cross_process_hits(seed)]
    parts += [short_pass(name, seed, seconds) for name in OWN_LAYERS
              if name not in skip]
    ok = True
    for part in parts:
        ok &= part.pop("ok", True)
        out.update(part)
    out["ok"] = bool(ok)
    return out
