"""Shared helpers of the performance ledger: paths, the scrubbed child
environment, the benchmark contract (``BENCHMARK.json``) and the few
order statistics every report uses.

Nothing here imports :mod:`repro` or numpy, so the orchestrator
(``run.py``) starts in a few milliseconds and all measured imports
happen inside the worker processes it times.
"""

from __future__ import annotations

import json
import os
import statistics

LEDGER_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(LEDGER_DIR))
SRC_DIR = os.path.join(REPO_ROOT, "src")
CONTRACT_PATH = os.path.join(REPO_ROOT, "BENCHMARK.json")
DEFAULT_OUT = os.path.join(LEDGER_DIR, "out")

DEFAULT_SEED = 20260926

#: the failure-accounting row every report prints beside the contract's
#: end-to-end metrics.  ``BENCHMARK.json`` carries it as its complement,
#: ``pass_ratio``, because a gated metric there must never be 0 and this
#: one is 0 on working code.
FAIL_RATIO = "fail_ratio"

#: the absolute timings: ISSUE 11's median op time and whole-pass
#: throughput with its 10 % bound, and the undisturbed-machine estimate.
#: Every report prints and stores them and ``compare`` gives them a
#: verdict, but ``BENCHMARK.json`` cannot gate them: a shared box runs
#: for minutes at a time in a mode 20-60 % slower, so any absolute time
#: spreads 10-50 % over ten runs (README, "What is gated"), and the
#: benchmark driver refuses a metric whose spread exceeds its bound.
UNGATED = [
    {"name": "op_p50_ms", "unit": "ms", "better": "lower", "bound": 0.10},
    {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.10},
    {"name": "op_p05_ms", "unit": "ms", "better": "lower", "bound": 0.10},
]

#: per-layer metrics that describe one workload's traced pass; all the
#: others are the same whichever workload a report lists them under
WORKLOAD_LAYERS = {
    "stage.first_op_extra_ms", "buildd.compiles", "buildd.hit_ratio",
    "trace.overhead_ratio", "trace.spans", "tail.op_ms", "tail.percentile",
}


def load_contract() -> dict:
    with open(CONTRACT_PATH) as fh:
        return json.load(fh)


def child_env(tmp: str) -> dict:
    """The environment every worker (and everything a worker starts)
    runs in: every ``REPRO_*`` variable scrubbed, then the four pins the
    ledger depends on.  ``TMPDIR`` moves gcc's and Python's temporary
    files under ``tmp`` so a run writes nothing outside ``--out`` — bar
    the interpreter's ``__pycache__`` beside the sources it imports:
    ``PYTHONDONTWRITEBYTECODE`` is scrubbed too, or every child of a
    fresh checkout would compile every module it imports and ``setup_s``
    and ``peak_rss_mb`` would measure the size of the source tree."""
    env = {k: v for k, v in os.environ.items() if not scrubbed(k)}
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = SRC_DIR + (os.pathsep + inherited if inherited else "")
    env.update(pinned_env(tmp))
    return env


def scrubbed(name: str) -> bool:
    return name.startswith("REPRO_") or name == "PYTHONDONTWRITEBYTECODE"


def pinned_env(tmp: str) -> dict:
    """The variables :func:`child_env` sets (echoed into every result)."""
    return {
        "OPENBLAS_NUM_THREADS": "1",
        "REPRO_BUILDD_JOBS": str(min(2, os.cpu_count() or 1)),
        "REPRO_TERRA_CACHE": os.path.join(tmp, "cache"),
        "TMPDIR": tmp,
    }


# -- order statistics ---------------------------------------------------------

def median(values) -> float:
    return float(statistics.median(values))


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile of an already-sorted sample."""
    idx = min(len(sorted_values) - 1, int(q * len(sorted_values)))
    return float(sorted_values[idx])


def tail(samples) -> tuple[float, float]:
    """``(value, percentile)`` of the highest of p50/p90/p99 that still
    has at least ten samples beyond it (p50 when the sample is smaller
    than twenty)."""
    ordered = sorted(samples)
    for q in (0.99, 0.90):
        if len(ordered) * (1.0 - q) >= 10:
            return percentile(ordered, q), q * 100
    return percentile(ordered, 0.50), 50.0


def spread(values) -> float:
    """Run-to-run spread the way the driver computes it: the distance
    between the first and third quartile as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return abs(q3 - q1) / abs(mid) if mid else 0.0
