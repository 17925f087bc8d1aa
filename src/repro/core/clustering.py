"""Process clustering and epoch assignment (Section V-E-3).

The paper limits rollback propagation by partitioning ranks into clusters
of frequently-communicating processes and giving each cluster a distinct
starting epoch (separated by 2).  Inter-cluster messages flowing from a
lower-epoch cluster to a higher-epoch one are logged, which breaks rollback
propagation along exactly those edges; a failure then rolls back only the
clusters at the same or a higher epoch.

This module provides:

* clustering strategies over a communication matrix — contiguous rank
  blocks (what the paper drew as squares in Fig. 8), greedy
  modularity-based graph clustering (networkx), and recursive spectral
  bisection — all returning balanced ``rank -> cluster`` maps;
* quality metrics (*locality*: intra-cluster fraction; *isolation*:
  inter-cluster fraction) matching the two objectives named in the paper;
* predicted logged-message fraction for a clustering + epoch ordering, and
  the epoch *reconfiguration* argument of Section V-E-3 that bounds the
  logged fraction by 50 %.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError

__all__ = [
    "block_clusters",
    "modularity_clusters",
    "spectral_clusters",
    "Clustering",
    "cluster_epochs",
]


def _validate(nprocs: int, nclusters: int) -> None:
    if nclusters < 1 or nclusters > nprocs:
        raise ConfigError(f"invalid cluster count {nclusters} for {nprocs} ranks")


def block_clusters(nprocs: int, nclusters: int) -> list[int]:
    """Contiguous equal rank blocks: rank ``r`` joins cluster ``r // (P/C)``.

    This is the clustering the paper applies to the NAS kernels (Fig. 8
    overlays square blocks on the rank axes), exploiting the fact that NAS
    rank orderings map neighbourhoods to contiguous ranks.
    """
    _validate(nprocs, nclusters)
    if nprocs % nclusters:
        raise ConfigError(
            f"block clustering needs nclusters | nprocs ({nclusters} vs {nprocs})"
        )
    per = nprocs // nclusters
    return [r // per for r in range(nprocs)]


def _balance_partition(groups: list[list[int]], nprocs: int, nclusters: int) -> list[int]:
    """Greedy-balance arbitrary groups into ``nclusters`` near-equal clusters."""
    target = nprocs / nclusters
    groups = sorted(groups, key=len, reverse=True)
    buckets: list[list[int]] = [[] for _ in range(nclusters)]
    for g in groups:
        # put the group where it least overflows the target
        idx = min(range(nclusters), key=lambda i: len(buckets[i]))
        if len(buckets[idx]) + len(g) > 2 * target and len(g) > 1:
            # split oversized groups to keep clusters balanced
            half = len(g) // 2
            buckets[idx].extend(g[:half])
            jdx = min(range(nclusters), key=lambda i: len(buckets[i]))
            buckets[jdx].extend(g[half:])
        else:
            buckets[idx].extend(g)
    out = [0] * nprocs
    for c, members in enumerate(buckets):
        for r in members:
            out[r] = c
    return out


def modularity_clusters(matrix: np.ndarray, nclusters: int) -> list[int]:
    """Cluster by greedy modularity over the symmetrised traffic graph.

    Maximising modularity directly serves the paper's two objectives:
    heavy intra-cluster traffic (locality) and light inter-cluster traffic
    (isolation).  Communities are then balanced into ``nclusters``.
    """
    import networkx as nx  # the one user: a third of a cold start

    nprocs = matrix.shape[0]
    _validate(nprocs, nclusters)
    sym = matrix + matrix.T
    graph = nx.Graph()
    graph.add_nodes_from(range(nprocs))
    for i in range(nprocs):
        for j in range(i + 1, nprocs):
            if sym[i, j] > 0:
                graph.add_edge(i, j, weight=float(sym[i, j]))
    communities = nx.community.greedy_modularity_communities(
        graph, weight="weight", cutoff=nclusters, best_n=nclusters
    )
    return _balance_partition([sorted(c) for c in communities], nprocs, nclusters)


def spectral_clusters(matrix: np.ndarray, nclusters: int) -> list[int]:
    """Recursive spectral bisection on the traffic Laplacian.

    Requires a power-of-two ``nclusters``.  Classic HPC partitioning
    heuristic; kept as an alternative for patterns where modularity merges
    unevenly (e.g. all-to-all-heavy FT).
    """
    nprocs = matrix.shape[0]
    _validate(nprocs, nclusters)
    if nclusters & (nclusters - 1):
        raise ConfigError("spectral_clusters needs a power-of-two cluster count")
    sym = (matrix + matrix.T).astype(float)

    def bisect(ranks: list[int], parts: int, base: int, out: list[int]) -> None:
        if parts == 1:
            for r in ranks:
                out[r] = base
            return
        sub = sym[np.ix_(ranks, ranks)]
        deg = np.diag(sub.sum(axis=1))
        lap = deg - sub
        vals, vecs = np.linalg.eigh(lap)
        fiedler = vecs[:, 1] if len(ranks) > 1 else np.zeros(1)
        order = np.argsort(fiedler, kind="stable")
        half = len(ranks) // 2
        left = [ranks[i] for i in order[:half]]
        right = [ranks[i] for i in order[half:]]
        bisect(sorted(left), parts // 2, base, out)
        bisect(sorted(right), parts // 2, base + parts // 2, out)

    out = [0] * nprocs
    bisect(list(range(nprocs)), nclusters, 0, out)
    return out


def cluster_epochs(cluster_of: list[int], spacing: int = 2,
                   order: list[int] | None = None) -> dict[int, int]:
    """Initial epoch per cluster: ``1 + spacing * position``.

    ``order`` permutes which cluster gets the lowest epoch (used by
    :meth:`Clustering.reconfigure_epochs`); identity by default.  The
    spacing of 2 guarantees a cluster checkpoint never equalises two
    clusters' epochs (paper, Section V-E-3).
    """
    nclusters = max(cluster_of) + 1
    order = list(range(nclusters)) if order is None else order
    if sorted(order) != list(range(nclusters)):
        raise ConfigError("epoch order must be a permutation of the clusters")
    return {c: 1 + spacing * pos for pos, c in enumerate(order)}


@dataclass
class Clustering:
    """A clustering of ranks plus its traffic-derived quality metrics."""

    cluster_of: list[int]
    matrix: np.ndarray
    epoch_order: list[int] | None = None

    def __post_init__(self) -> None:
        if len(self.cluster_of) != self.matrix.shape[0]:
            raise ConfigError("cluster map does not match matrix size")
        if self.epoch_order is None:
            self.epoch_order = list(range(self.n_clusters))

    @property
    def n_clusters(self) -> int:
        return max(self.cluster_of) + 1

    def members(self, cluster: int) -> list[int]:
        return [r for r, c in enumerate(self.cluster_of) if c == cluster]

    # ------------------------------------------------------------------
    def cluster_matrix(self) -> np.ndarray:
        """Aggregate the rank matrix into a cluster-to-cluster matrix."""
        k = self.n_clusters
        out = np.zeros((k, k), dtype=self.matrix.dtype)
        c = np.asarray(self.cluster_of)
        for a in range(k):
            for b in range(k):
                out[a, b] = self.matrix[np.ix_(c == a, c == b)].sum()
        return out

    def locality(self) -> float:
        """Fraction of traffic that stays inside clusters (maximise)."""
        cm = self.cluster_matrix()
        total = cm.sum()
        return float(np.trace(cm) / total) if total else 1.0

    def isolation(self) -> float:
        """Fraction of traffic crossing clusters (minimise) = 1 - locality."""
        return 1.0 - self.locality()

    # ------------------------------------------------------------------
    def predicted_log_fraction(self) -> float:
        """Fraction of messages the epoch rule will log: traffic from a
        lower-epoch cluster to a higher-epoch cluster (inter-cluster only;
        intra-cluster epoch crossings from staggered checkpoints add a
        workload-dependent remainder measured by the simulator)."""
        cm = self.cluster_matrix()
        total = cm.sum()
        if not total:
            return 0.0
        assert self.epoch_order is not None
        pos = {c: i for i, c in enumerate(self.epoch_order)}
        logged = sum(
            cm[a, b]
            for a in range(self.n_clusters)
            for b in range(self.n_clusters)
            if pos[a] < pos[b]
        )
        return float(logged / total)

    def reconfigure_epochs(self) -> "Clustering":
        """Pick the epoch ordering with the smallest predicted log fraction.

        Section V-E-3: with message sets A (intra), B (logged inter) and C
        (non-logged inter), if B exceeds 50 % of inter-cluster traffic a
        reconfiguration of the epochs makes C be logged instead, so the
        logged fraction can always be kept at or below 50 %.  Reversing the
        epoch order swaps B and C; we additionally search nearby orderings
        (for >2 clusters a non-reversal permutation can beat both).
        """
        import itertools

        assert self.epoch_order is not None
        best = list(self.epoch_order)
        best_frac = self.predicted_log_fraction()
        candidates: list[list[int]] = [list(reversed(self.epoch_order))]
        if self.n_clusters <= 6:
            candidates = [list(p) for p in itertools.permutations(range(self.n_clusters))]
        for order in candidates:
            trial = Clustering(self.cluster_of, self.matrix, order)
            frac = trial.predicted_log_fraction()
            if frac < best_frac:
                best, best_frac = order, frac
        return Clustering(self.cluster_of, self.matrix, best)

    def initial_epochs(self, spacing: int = 2) -> dict[int, int]:
        return cluster_epochs(self.cluster_of, spacing, self.epoch_order)
