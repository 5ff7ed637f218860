"""Benchmark result persistence — ``BENCH_<name>.json`` files.

The benchmark suite printed its tables and threw the numbers away; CI
runs and regression hunts want them on disk.  :func:`recording` opens a
named run; while it is active every :meth:`~repro.bench.harness.Table.
show` call lands in the run as structured rows (the console output is
unchanged), and scalar series can be added directly with
:meth:`BenchRun.record`.  On exit the run is written atomically to
``BENCH_<name>.json`` in ``REPRO_BENCH_OUT_DIR`` (default: the current
directory)::

    from repro.bench.record import recording

    with recording("serve", tenants=8) as run:
        run.record("throughput_rps", rps)
        run.record("p99_ms", p99 * 1000)
    # -> ./BENCH_serve.json

The file shape is stable: ``{"name", "meta", "tables", "values",
"written_at"}`` — one JSON object per run, newest write wins.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
import time
from contextlib import contextmanager
from typing import Iterator, Optional

from .. import config


def default_out_dir() -> str:
    return config.get("REPRO_BENCH_OUT_DIR") or os.getcwd()


class BenchRun:
    """One named benchmark run accumulating tables and scalar values."""

    def __init__(self, name: str, out_dir: Optional[str] = None, **meta):
        self.name = name
        self.out_dir = out_dir or default_out_dir()
        self.meta = dict(meta)
        self.tables: list[dict] = []
        self.values: dict = {}
        self._lock = threading.Lock()

    # -- accumulation --------------------------------------------------------
    def record(self, key: str, value) -> None:
        """Set scalar series ``key`` (numbers, strings, or JSON trees)."""
        with self._lock:
            self.values[key] = value

    def add_table(self, title: str, columns: list[str],
                  rows: list[list]) -> None:
        with self._lock:
            self.tables.append({"title": title, "columns": list(columns),
                                "rows": [list(r) for r in rows]})

    # -- persistence ---------------------------------------------------------
    def path(self) -> str:
        return os.path.join(self.out_dir, f"BENCH_{self.name}.json")

    def write(self) -> str:
        """Atomically write ``BENCH_<name>.json``; returns the path."""
        with self._lock:
            payload = {"name": self.name, "meta": self.meta,
                       "tables": self.tables, "values": self.values,
                       "written_at": time.time()}
        os.makedirs(self.out_dir, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=self.out_dir, prefix=".bench-")
        try:
            with os.fdopen(fd, "w") as f:
                json.dump(payload, f, indent=2, sort_keys=True, default=str)
                f.write("\n")
            final = self.path()
            os.replace(tmp, final)
            return final
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise


#: the active run (one at a time; nested recordings stack)
_active: list[BenchRun] = []
_active_lock = threading.Lock()


def current() -> Optional[BenchRun]:
    """The innermost active run, or None (how Table.show finds us)."""
    with _active_lock:
        return _active[-1] if _active else None


def active_runs() -> list[BenchRun]:
    """Every active run, outermost first.  Nested recordings *stack*: a
    table shown inside ``recording("report")`` → ``recording("fig6")``
    lands in both files — the umbrella keeps the complete picture while
    each family gets its own ``BENCH_<family>.json`` (what
    ``benchmarks/report.py --json`` writes)."""
    with _active_lock:
        return list(_active)


@contextmanager
def recording(name: str, out_dir: Optional[str] = None,
              **meta) -> Iterator[BenchRun]:
    """Open run ``name``; tables shown and values recorded inside the block
    are written to ``BENCH_<name>.json`` when it exits (also on error —
    a crashed benchmark still leaves its partial numbers behind)."""
    run = BenchRun(name, out_dir, **meta)
    with _active_lock:
        _active.append(run)
    try:
        yield run
    finally:
        with _active_lock:
            _active.remove(run)
        run.write()
