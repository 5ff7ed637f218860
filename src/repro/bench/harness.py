"""Timing and reporting helpers shared by the benchmark suite.

Reproduces the paper's reporting units: GFLOPS for the GEMM experiments
(Figure 6), wall-clock speedup-over-reference-C for the Orion experiments
(Figure 8), ns/call for the dispatch micro-benchmark (§6.3.1), and GB/s
for the data-layout experiments (Figure 9).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Optional


def time_call(fn: Callable[[], None], repeats: int = 5,
              min_time: float = 0.0) -> float:
    """Median wall-clock seconds of ``fn()`` over ``repeats`` runs (after
    one warm-up run, which also absorbs JIT compilation)."""
    fn()
    times = []
    for _ in range(max(repeats, 1)):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    times.sort()
    return times[len(times) // 2]


def gflops(flops: float, seconds: float) -> float:
    return flops / seconds / 1e9

def gbps(nbytes: float, seconds: float) -> float:
    return nbytes / seconds / 1e9


@dataclass
class Row:
    label: str
    value: float
    unit: str
    baseline: Optional[float] = None

    @property
    def speedup(self) -> Optional[float]:
        if self.baseline is None or self.value == 0:
            return None
        return self.baseline / self.value


class Table:
    """A tiny fixed-width results table, printed like the paper's.

    Rows keep the cells as given (floats are rounded only when
    rendered), so a table is also the measured series: ``benchmarks/
    report.py`` prints it and ``benchmarks/test_shapes.py`` reads it
    back with :meth:`column`."""

    def __init__(self, title: str, columns: list[str]):
        self.title = title
        self.columns = columns
        self.rows: list[tuple] = []

    def add(self, *cells) -> None:
        self.rows.append(cells)

    def column(self, name: str) -> dict:
        """``{first cell: cell under column name}`` for every row."""
        i = self.columns.index(name)
        return {row[0]: row[i] for row in self.rows}

    def render(self) -> str:
        widths = [len(c) for c in self.columns]
        rows = [[_fmt(c) for c in row] for row in self.rows]
        for row in rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        lines = [self.title,
                 "  ".join(c.ljust(w) for c, w in zip(self.columns, widths)),
                 "  ".join("-" * w for w in widths)]
        for row in rows:
            lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
        return "\n".join(lines)

    def show(self) -> None:
        print()
        print(self.render())


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)
