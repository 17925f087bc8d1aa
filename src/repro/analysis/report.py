"""Paper-style result formatting.

Shared by the benchmark harness and the examples: fixed-width tables (no
third-party dependency) and Table-I layout helpers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Sequence

__all__ = ["format_table", "Table1Cell", "format_table1"]


def format_table(headers: Sequence[str],
                 rows: Iterable[Sequence[Any]]) -> str:
    """Render a fixed-width table with a separator under the header."""
    rows = [list(r) for r in rows]
    widths = [
        max(len(str(h)), *(len(str(r[i])) for r in rows)) if rows else len(str(h))
        for i, h in enumerate(headers)
    ]

    def line(cells: Sequence[Any]) -> str:
        return "  ".join(str(c).rjust(w) for c, w in zip(cells, widths))

    out = [line(headers), line(["-" * w for w in widths])]
    out.extend(line(r) for r in rows)
    return "\n".join(out) + "\n"


@dataclass(frozen=True)
class Table1Cell:
    """One (kernel, size, clusters) cell of Table I."""

    kernel: str
    nprocs: int
    nclusters: int
    log_percent: float
    rollback_percent: float


def format_table1(cells: Iterable[Table1Cell]) -> str:
    """Lay out Table I the way the paper prints it: kernels as rows,
    (size, clusters) pairs as %log/%rl column pairs."""
    cells = list(cells)
    kernels = sorted({c.kernel for c in cells}, key=lambda k: k)
    configs = sorted({(c.nprocs, c.nclusters) for c in cells})
    index = {(c.kernel, c.nprocs, c.nclusters): c for c in cells}
    headers = ["kernel"]
    for nprocs, ncl in configs:
        headers += [f"{nprocs}/{ncl}cl %log", "%rl"]
    rows = []
    for kernel in kernels:
        row: list[Any] = [kernel]
        for nprocs, ncl in configs:
            cell = index.get((kernel, nprocs, ncl))
            if cell is None:
                row += ["-", "-"]
            else:
                row += [f"{cell.log_percent:.1f}", f"{cell.rollback_percent:.1f}"]
        rows.append(row)
    return format_table(headers, rows)
