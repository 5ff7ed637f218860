"""The differential executor: every program runs on both backends at the
raw (0) and shipped (1) pipeline levels, in crash-isolated child
processes, and any disagreement is a finding.

One child process per (backend, level) configuration walks the same
deterministic (seed, index) program sequence (see :mod:`repro.fuzz.gen`);
the parent merges their per-index outcomes and reports:

* **divergence** — configurations disagree on a result, a trap, or an
  error (compared bitwise for floats; NaN payloads canonicalized);
* **crash** — a child died mid-program (recorded against the in-flight
  index, child respawned past it; the harness itself never dies);
* **timeout** — a program exceeded the per-program watchdog (generated
  loops are fuel-bounded, so this indicates a backend bug).

Totals go to the process-wide metrics registry as ``fuzz.*``, which the
``repro.buildd.stats()`` snapshot reports beside its compile counters.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

from .. import trace
from ..trace.metrics import registry
from .child import encode_args
from .gen import FuzzProgram, generate_program

#: the default differential matrix: both backends at the raw and the
#: shipped pipeline level (the vectorizing level is ``AUTOVEC_CONFIGS``)
DEFAULT_CONFIGS = [("interp", 0), ("interp", 1), ("c", 0), ("c", 1)]

#: ride-along configurations running the *tiered execution policy* at
#: both scalar pipeline levels: a low synchronous tier-up threshold (see
#: repro.fuzz.child) makes every program cross the interp→C transition
#: mid-argset-loop, so tier transitions are differentially checked
#: against both plain backends.  Opt-in via ``--tiered`` / these consts.
TIERED_CONFIGS = [("tiered", 0), ("tiered", 1)]

#: ride-along configurations for the auto-vectorizer: both real backends
#: at pipeline level 2 (fold/simplify/vectorize/dce).  Vectorized
#: executions must agree *bitwise* with every scalar config — traps,
#: NaNs, signed zeros, and sub-int wrapping included.  Opt-in via
#: ``--autovec`` / these consts.
AUTOVEC_CONFIGS = [("interp", 2), ("c", 2)]

#: ride-along configurations for the tile-schedule lowering: the C
#: backend with the deterministic lenient :func:`repro.schedule
#: .fuzz_schedule` applied to every generated program (loops named
#: ``i``/``i1``/... blocked by a non-dividing size; unprovable loops
#: skipped), at a scalar and the vectorizing level.  Blocking is
#: order-preserving, so scheduled executions must agree bitwise with
#: every unscheduled config.  Opt-in via ``--schedule`` / these consts.
SCHEDULE_CONFIGS = [("sched", 1), ("sched", 2)]

#: seconds a child may spend on one program before the watchdog kills it
DEFAULT_TIMEOUT = 60.0


@dataclass
class Execution:
    """One configuration's outcome for one program."""
    backend: str
    level: int
    outcome: dict   # {"outcomes": [...]} | {"fatal": ...} | {"crash": ...}
                    # | {"timeout": true}

    @property
    def config(self) -> str:
        return f"{self.backend}@{self.level}"

    def canon(self) -> str:
        """Canonical form for cross-configuration comparison (what the
        structural memo told a C config is about the config, not the
        program)."""
        return json.dumps({k: v for k, v in self.outcome.items()
                           if k != "memo"}, sort_keys=True)


@dataclass
class Divergence:
    """A program on which the configurations disagreed."""
    seed: int
    index: int
    program: FuzzProgram
    executions: list
    minimized: FuzzProgram = None

    def describe(self) -> str:
        lines = [f"divergence at seed={self.seed} index={self.index} "
                 f"entry={self.program.entry}"]
        for ex in self.executions:
            lines.append(f"  {ex.config:10s} {ex.canon()}")
        src = (self.minimized or self.program).source
        lines.append("  program:")
        lines.extend("    " + ln for ln in src.splitlines())
        return "\n".join(lines)


@dataclass
class FuzzReport:
    seed: int
    count: int
    configs: list
    divergences: list = field(default_factory=list)
    crashes: int = 0
    timeouts: int = 0
    traps: int = 0
    elapsed: float = 0.0
    #: what the structural memo said to the C configs' second definitions
    memo: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.divergences and not self.crashes and not self.timeouts

    def summary(self) -> str:
        configs = ", ".join(f"{b}@{lv}" for b, lv in self.configs)
        lines = [
            f"fuzz: {self.count} programs, seed {self.seed}, "
            f"configs [{configs}], {self.elapsed:.1f}s",
            f"  divergences: {len(self.divergences)}   "
            f"crashes: {self.crashes}   timeouts: {self.timeouts}   "
            f"trapping programs: {self.traps}",
            "  structural memo, second definitions: " + (", ".join(
                f"{k} {n}" for k, n in sorted(self.memo.items())) or "none"),
        ]
        for d in self.divergences:
            lines.append(d.describe())
        lines.append("result: " + ("OK" if self.ok else "FAILURES FOUND"))
        return "\n".join(lines)


def _child_env(level: int) -> dict:
    env = dict(os.environ)
    env["REPRO_TERRA_PIPELINE"] = str(level)
    # the child imports repro the same way the parent did
    src_root = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    parts = [src_root] + [p for p in env.get("PYTHONPATH", "").split(
        os.pathsep) if p and p != src_root]
    env["PYTHONPATH"] = os.pathsep.join(parts)
    return env


def _spawn(backend: str, level: int, extra_args: list) -> subprocess.Popen:
    cmd = [sys.executable, "-m", "repro.fuzz.child",
           "--backend", backend, "--level", str(level)] + extra_args
    return subprocess.Popen(
        cmd, env=_child_env(level),
        stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL, text=True)


class _Watchdog:
    """Kills a process unless fed within ``timeout`` seconds."""

    def __init__(self, proc: subprocess.Popen, timeout: float):
        self.proc = proc
        self.timeout = timeout
        self.fired = False
        self._timer = None
        self._lock = threading.Lock()

    def _fire(self):
        with self._lock:
            self.fired = True
        self.proc.kill()

    def feed(self):
        with self._lock:
            if self._timer is not None:
                self._timer.cancel()
            self._timer = threading.Timer(self.timeout, self._fire)
            self._timer.daemon = True
            self._timer.start()

    def stop(self):
        with self._lock:
            if self._timer is not None:
                self._timer.cancel()


def _collect(backend: str, level: int, seed: int, count: int,
             timeout: float, results: dict, lock: threading.Lock) -> None:
    """Run one configuration's child over [0, count), respawning past
    crashes; fills ``results[index]`` with this config's outcome."""
    start = 0
    while start < count:
        proc = _spawn(backend, level,
                      ["--seed", str(seed), "--count", str(count),
                       "--start", str(start)])
        watchdog = _Watchdog(proc, timeout)
        watchdog.feed()
        inflight = None
        try:
            for line in proc.stdout:
                watchdog.feed()
                try:
                    msg = json.loads(line)
                except ValueError:
                    continue
                if msg.get("event") == "begin":
                    inflight = msg["index"]
                elif msg.get("event") == "done":
                    outcome = {k: v for k, v in msg.items()
                               if k not in ("event", "index")}
                    with lock:
                        results[msg["index"]] = outcome
                    inflight = None
        finally:
            watchdog.stop()
            proc.wait()
        if inflight is not None:
            # child died (or was killed by the watchdog) mid-program
            outcome = ({"timeout": True} if watchdog.fired
                       else {"crash": proc.returncode})
            with lock:
                results[inflight] = outcome
            start = inflight + 1
        elif proc.returncode == 0:
            return       # clean walk of the whole range
        else:
            # died between programs (startup failure etc.) — without an
            # in-flight index there is nothing to skip; give up on the
            # remaining range rather than loop forever
            with lock:
                for i in range(start, count):
                    results.setdefault(i, {"crash": proc.returncode})
            return


def run_differential(seed: int, count: int, configs=None,
                     timeout: float = DEFAULT_TIMEOUT,
                     record_stats: bool = True) -> FuzzReport:
    """Run ``count`` generated programs through every configuration and
    compare the outcomes.  Never raises on program misbehaviour — traps,
    crashes, and hangs all become report entries."""
    configs = list(configs or DEFAULT_CONFIGS)
    t0 = time.perf_counter()
    with trace.span("fuzz", cat="fuzz", seed=seed, count=count,
                    configs=len(configs)) as fsp:
        per_config: dict = {cfg: {} for cfg in configs}
        lock = threading.Lock()
        threads = []
        for backend, level in configs:
            th = threading.Thread(
                target=_collect,
                args=(backend, level, seed, count, timeout,
                      per_config[(backend, level)], lock),
                daemon=True)
            th.start()
            threads.append(th)
        for th in threads:
            th.join()

        report = FuzzReport(seed=seed, count=count, configs=configs)
        for index in range(count):
            execs = [Execution(b, lv, per_config[(b, lv)].get(
                index, {"missing": True})) for b, lv in configs]
            for said in (e.outcome.get("memo") for e in execs):
                if said is not None:
                    report.memo[said] = report.memo.get(said, 0) + 1
            report.crashes += sum(1 for e in execs if "crash" in e.outcome)
            report.timeouts += sum(1 for e in execs if "timeout" in e.outcome)
            canons = {e.canon() for e in execs}
            if len(canons) > 1:
                report.divergences.append(Divergence(
                    seed=seed, index=index,
                    program=generate_program(seed, index), executions=execs))
            else:
                outcome = execs[0].outcome
                if any("trap" in o for o in outcome.get("outcomes") or []):
                    report.traps += 1
        fsp.set(divergences=len(report.divergences),
                crashes=report.crashes, timeouts=report.timeouts)
    report.elapsed = time.perf_counter() - t0

    if record_stats:
        reg = registry()
        with reg.locked():
            reg.add("fuzz.programs", count)
            reg.add("fuzz.divergences", len(report.divergences))
            reg.add("fuzz.traps", report.traps)
            reg.add("fuzz.crashes", report.crashes)
    return report


def run_program(program: FuzzProgram, configs=None,
                timeout: float = DEFAULT_TIMEOUT) -> list:
    """Run ONE program (not necessarily generator-derived) across the
    configurations, each in its own isolated child.  Used by the
    minimizer and the corpus replayer."""
    configs = list(configs or DEFAULT_CONFIGS)
    spec = json.dumps({
        "source": program.source,
        "entry": program.entry,
        "argsets": [encode_args(a) for a in program.argsets],
    })
    procs = [(b, lv, _spawn(b, lv, ["--one"])) for b, lv in configs]
    execs = []
    for backend, level, proc in procs:
        try:
            out, _ = proc.communicate(spec, timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            execs.append(Execution(backend, level, {"timeout": True}))
            continue
        if proc.returncode != 0:
            execs.append(Execution(backend, level,
                                   {"crash": proc.returncode}))
            continue
        try:
            execs.append(Execution(backend, level,
                                   json.loads(out.strip().splitlines()[-1])))
        except (ValueError, IndexError):
            execs.append(Execution(backend, level, {"crash": proc.returncode}))
    return execs


def executions_diverge(execs) -> bool:
    """True when the executions do not all agree."""
    return len({e.canon() for e in execs}) > 1
