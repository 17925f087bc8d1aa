"""Communication-density matrices and their text rendering (Fig. 8).

The paper's Fig. 8 plots, for CG.C.64 and MG.C.64, the number of messages
per (sender, receiver) pair with the chosen clustering overlaid as squares
and the per-cluster starting epochs annotated.  :func:`collect_matrix`
runs a kernel and returns its matrix; :func:`render_matrix` draws an
ASCII heat map with cluster boundaries so the benchmark output is
eyeball-comparable with the paper's figure.
"""

from __future__ import annotations

import math
from contextlib import closing
from typing import Any, Callable

import numpy as np

from ..simmpi.runtime import World

__all__ = ["collect_matrix", "render_matrix", "matrix_stats"]


def collect_matrix(
    nprocs: int,
    program_factory: Callable[[int, int], Any],
) -> np.ndarray:
    """Run ``program_factory`` failure-free and return the comm matrix."""
    world = World(nprocs, program_factory)
    with closing(world):
        world.launch()
        world.run()
    return world.tracer.comm_matrix()


_SHADES = " .:-=+*#%@"


def render_matrix(
    matrix: np.ndarray,
    cluster_of: list[int] | None = None,
    epochs: dict[int, int] | None = None,
    max_width: int = 64,
) -> str:
    """ASCII heat map (log scale) with optional cluster boundary rulers."""
    n = matrix.shape[0]
    step = max(1, math.ceil(n / max_width))
    # coarsen by summing step x step tiles
    m = matrix[: n - n % step or n, : n - n % step or n]
    if step > 1:
        k = m.shape[0] // step
        m = m.reshape(k, step, k, step).sum(axis=(1, 3))
    peak = m.max() or 1
    lines = []
    boundaries = set()
    if cluster_of is not None:
        for r in range(1, n):
            if cluster_of[r] != cluster_of[r - 1]:
                boundaries.add(r // step)
    for i in range(m.shape[0]):
        row = []
        for j in range(m.shape[1]):
            v = m[i, j]
            shade = 0
            if v > 0:
                shade = 1 + int((len(_SHADES) - 2) * math.log1p(v) / math.log1p(peak))
            row.append(_SHADES[shade])
            if (j + 1) in boundaries:
                row.append("|")
        lines.append("".join(row))
        if (i + 1) in boundaries:
            lines.append("-" * len(lines[-1]))
    if cluster_of is not None and epochs is not None:
        anns = ", ".join(
            f"cluster {c}: Ep{e}" for c, e in sorted(epochs.items())
        )
        lines.append(f"[{anns}]")
    return "\n".join(lines)


def matrix_stats(matrix: np.ndarray) -> dict[str, float]:
    """Summary statistics used in tests and reports."""
    total = float(matrix.sum())
    nz = int((matrix > 0).sum())
    n = matrix.shape[0]
    return {
        "total_messages": total,
        "nonzero_pairs": nz,
        "fill": nz / (n * (n - 1)) if n > 1 else 0.0,
        "max_pair": float(matrix.max()),
        "symmetry": float(
            np.abs(matrix - matrix.T).sum() / (2 * total) if total else 0.0
        ),
    }
