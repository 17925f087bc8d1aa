#!/usr/bin/env python
"""Cluster a NAS-pattern kernel from its measured communication matrix and
quantify the logging/rollback trade-off (the Table I experiment, at demo
scale).

    python examples/clustered_nas.py [CG|MG|FT|LU|BT] [nprocs]
"""

import sys

from repro.analysis import (
    collect_matrix,
    expected_rollback_fraction,
    render_matrix,
)
from repro.analysis.rollback import measure_rollback
from repro.apps import TABLE1_KERNELS
from repro.core import ProtocolConfig
from repro.core.clustering import Clustering, block_clusters


def main() -> None:
    kernel_name = sys.argv[1] if len(sys.argv) > 1 else "CG"
    nprocs = int(sys.argv[2]) if len(sys.argv) > 2 else 16
    nclusters = 4
    cls = TABLE1_KERNELS[kernel_name]
    factory = lambda r, s: cls(r, s)

    # 1. measure the communication pattern (a failure-free run)
    matrix = collect_matrix(nprocs, factory)
    clusters = block_clusters(nprocs, nclusters)
    clustering = Clustering(clusters, matrix).reconfigure_epochs()
    print(f"{kernel_name}.{nprocs} communication pattern "
          f"({int(matrix.sum())} messages):")
    print(render_matrix(matrix, clusters, clustering.initial_epochs(),
                        max_width=48))
    print(f"locality {100 * clustering.locality():.1f} %  /  "
          f"isolation {100 * clustering.isolation():.1f} %  /  "
          f"predicted inter-cluster log "
          f"{100 * clustering.predicted_log_fraction():.1f} %")

    # 2. run under the protocol with that clustering, sampling SPE tables
    config = ProtocolConfig(
        checkpoint_interval=5e-5,
        cluster_of=clusters,
        cluster_epochs=clustering.initial_epochs(),
        cluster_stagger=6e-6,
        rank_stagger=1e-6,
    )
    logs, _, rb = measure_rollback(nprocs, factory, config, 8e-5)

    # 3. the two Table I columns
    print(f"\nTable-I style result for {kernel_name}.{nprocs}, "
          f"{nclusters} clusters:")
    print(f"  %log = {100 * logs['log_fraction']:5.1f}   "
          f"(paper: a few % for CG/LU, ~40 % for FT)")
    print(f"  %rl  = {rb.percent:5.1f}   "
          f"(theory: {100 * expected_rollback_fraction(nclusters):.1f})")


if __name__ == "__main__":
    main()
