"""Fig. 8 — communication density matrices and clustering overlays for
CG.64 and MG.64.

The paper plots the per-pair message counts of NPB CG.C.64 and MG.C.64
with the chosen clustering drawn as squares and the per-cluster starting
epochs annotated (Ep0, Ep2, ... separated by 2).  We regenerate both
matrices from the kernels, render them as ASCII heat maps with the same
overlays, and assert the structural properties the clustering exploits.
"""

import numpy as np
import pytest

from repro.analysis import collect_matrix, matrix_stats, render_matrix
from repro.apps import CGKernel, MGKernel
from repro.core.clustering import Clustering, block_clusters, modularity_clusters

from conftest import emit, is_paper_scale

NPROCS = 64
NCLUSTERS = 8 if is_paper_scale() else 8


@pytest.fixture(scope="module")
def cg_matrix():
    return collect_matrix(NPROCS, lambda r, s: CGKernel(r, s, niters=6, block=4))


@pytest.fixture(scope="module")
def mg_matrix():
    return collect_matrix(NPROCS, lambda r, s: MGKernel(r, s, niters=3, levels=3, block=8))


def test_fig8_render(cg_matrix, mg_matrix, benchmark):
    out = []
    for name, matrix in (("CG", cg_matrix), ("MG", mg_matrix)):
        clusters = block_clusters(NPROCS, NCLUSTERS)
        clustering = Clustering(clusters, matrix)
        out.append(f"--- {name}.{NPROCS} communication pattern "
                   f"({int(matrix.sum())} messages) ---")
        out.append(render_matrix(matrix, clusters,
                                 clustering.initial_epochs(), max_width=64))
        out.append(
            f"locality={100 * clustering.locality():.1f}%  "
            f"isolation={100 * clustering.isolation():.1f}%  "
            f"predicted inter-cluster log="
            f"{100 * clustering.predicted_log_fraction():.1f}%\n"
        )
    emit("fig8_comm_patterns.txt", "\n".join(out))
    benchmark.pedantic(
        lambda: matrix_stats(cg_matrix), rounds=3, iterations=1
    )


def test_fig8_cg_has_block_plus_band_structure(cg_matrix, benchmark):
    """CG: heavy row-butterfly blocks on the diagonal plus transpose bands
    off it — the paper's left panel."""
    def check():
        n = NPROCS
        row_width = 8  # cg_grid(64) -> 8x8
        intra_row = sum(
            cg_matrix[i, j] for i in range(n) for j in range(n)
            if i // row_width == j // row_width and i != j
        )
        return intra_row / cg_matrix.sum()

    frac = benchmark(check)
    assert frac > 0.3
    # sparse overall: CG is not an all-to-all
    assert matrix_stats(cg_matrix)["fill"] < 0.4


def test_fig8_mg_is_near_neighbor_with_strides(mg_matrix, benchmark):
    """MG: banded nearest-neighbour structure with extra stride bands from
    the coarser levels — the paper's right panel."""
    def degrees():
        return [(mg_matrix[i] > 0).sum() for i in range(NPROCS)]

    deg = benchmark(degrees)
    assert max(deg) <= 14  # bounded degree, nothing like all-to-all
    assert min(deg) >= 3
    stats = matrix_stats(mg_matrix)
    assert stats["fill"] < 0.25
    assert stats["symmetry"] < 1e-9  # halo exchanges are symmetric


def test_fig8_block_clustering_matches_modularity(cg_matrix, benchmark):
    """The paper clusters by inspection into contiguous squares; a
    modularity clustering of the measured matrix agrees with the block
    structure for CG (locality within a few points)."""
    def localities():
        blocks = Clustering(block_clusters(NPROCS, NCLUSTERS), cg_matrix)
        graph = Clustering(modularity_clusters(cg_matrix, NCLUSTERS), cg_matrix)
        return blocks.locality(), graph.locality()

    block_loc, graph_loc = benchmark(localities)
    assert block_loc > 0.35
    assert graph_loc >= block_loc - 0.1


def test_fig8_epoch_annotation_spacing(cg_matrix, benchmark):
    clustering = Clustering(block_clusters(NPROCS, NCLUSTERS), cg_matrix)
    epochs = benchmark(clustering.initial_epochs)
    values = sorted(epochs.values())
    assert all(b - a == 2 for a, b in zip(values, values[1:]))
