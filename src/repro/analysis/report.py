"""Paper-style result formatting.

Shared by the benchmark harness and the examples: fixed-width tables (no
third-party dependency) and Table-I layout helpers.
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence

from .theory import expected_rollback_fraction

__all__ = ["format_table", "format_table1"]


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


def format_table1(rows: Iterable[dict[str, Any]], clusters: Iterable[int] = ()) -> str:
    """Table I as the paper prints it — kernels as rows, (size, clusters)
    pairs as %log/%rl column pairs — from :func:`repro.campaigns.table1_cell`
    rows, then the ``(p+1)/2p`` model line of ``clusters``, if any."""
    index = {(r["kernel"], r["ranks"], r["clusters"]): r for r in rows}
    configs = sorted({(p, c) for _, p, c in index})
    headers = ["kernel"] + [h for p, c in configs for h in (f"{p}/{c}cl %log", "%rl")]
    table = []
    for kernel in sorted({k for k, _, _ in index}):
        row = [kernel]
        for p, c in configs:
            cell = index.get((kernel, p, c))
            row += [f"{cell['pct_log']:.1f}", f"{cell['pct_rollback']:.1f}"] if cell else ["-", "-"]
        table.append(row)
    out = format_table(headers, table)
    if clusters:
        model = "  ".join(f"{p}cl:{100 * expected_rollback_fraction(p):.1f}%"
                          for p in sorted(set(clusters)))
        out += f"\ntheoretical %rl ((p+1)/2p): {model}\n"
    return out
