"""The fixed-width table every experiment of the benchmark suite
prints."""

from __future__ import annotations


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
