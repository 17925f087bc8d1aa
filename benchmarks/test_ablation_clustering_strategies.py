"""Extension — automated clustering strategies (the paper's future work).

Section VII: "we plan to explore further the association of
send-determinism and clustering to further reduce the number of processes
to rollback and the number of messages to log."  The paper clusters by
manual inspection of the communication topology (contiguous rank blocks);
this extension compares that baseline against two automatic strategies
over the *measured* traffic matrix:

* greedy modularity communities (networkx),
* recursive spectral bisection on the traffic Laplacian,

each followed by the epoch reconfiguration of Section V-E-3, evaluated by
the two Table-I metrics, all three derived from one recorded run of the
kernel (``record_trace`` + ``trace_cell``).
"""

import pytest

from repro.analysis import collect_matrix
from repro.analysis.report import format_table
from repro.analysis.rollback import record_trace, rollback_analysis, trace_cell
from repro.apps import CGKernel, LUKernel, MGKernel
from repro.core import ProtocolConfig
from repro.core.clustering import (
    Clustering,
    block_clusters,
    modularity_clusters,
    spectral_clusters,
)

from conftest import emit

NPROCS = 16
NCLUSTERS = 4

KERNELS = {
    "CG": lambda r, s: CGKernel(r, s, niters=8, block=4),
    "MG": lambda r, s: MGKernel(r, s, niters=5, levels=2, block=8),
    "LU": lambda r, s: LUKernel(r, s, niters=5, nblocks=2, block=4),
}


def evaluate(trace, cluster_of, cluster_epochs):
    config = ProtocolConfig(
        checkpoint_interval=5e-5,
        cluster_of=cluster_of,
        cluster_epochs=cluster_epochs,
        cluster_stagger=6e-6,
        rank_stagger=3e-7,
        lightweight=True,
        retain_payloads=False,
    )
    log, snapshots = trace_cell(trace, config)
    return 100 * log["log_fraction"], rollback_analysis(snapshots, NPROCS).percent


@pytest.fixture(scope="module")
def strategy_results():
    out = {}
    for name, factory in KERNELS.items():
        matrix = collect_matrix(NPROCS, factory, copy_payloads=False)
        trace = record_trace(NPROCS, factory, 6e-5, copy_payloads=False)
        strategies = {
            "blocks (paper)": block_clusters(NPROCS, NCLUSTERS),
            "modularity": modularity_clusters(matrix, NCLUSTERS),
            "spectral": spectral_clusters(matrix, NCLUSTERS),
        }
        for strat, cluster_of in strategies.items():
            clustering = Clustering(cluster_of, matrix).reconfigure_epochs()
            log, rl = evaluate(trace, cluster_of, clustering.initial_epochs())
            out[(name, strat)] = dict(
                log=log, rl=rl, locality=100 * clustering.locality(),
            )
    return out


def test_clustering_strategies_table(strategy_results, benchmark):
    rows = [
        [name, strat, f"{v['locality']:.1f}", f"{v['log']:.1f}", f"{v['rl']:.1f}"]
        for (name, strat), v in strategy_results.items()
    ]
    table = format_table(
        ["kernel", "strategy", "locality %", "%log", "%rl"], rows
    )
    table += ("\n(extension of Sec. VII future work: automatic clustering "
              "from the measured traffic matrix)\n")
    emit("ablation_clustering_strategies.txt", table)
    matrix = collect_matrix(NPROCS, KERNELS["CG"], copy_payloads=False)
    benchmark(lambda: modularity_clusters(matrix, NCLUSTERS))


def test_automatic_strategies_competitive(strategy_results, benchmark):
    """Automatic clustering is at worst modestly behind the hand blocks on
    %log (and sometimes ahead) — it never collapses."""
    def worst_gap():
        gap = 0.0
        for name in KERNELS:
            base = strategy_results[(name, "blocks (paper)")]["log"]
            for strat in ("modularity", "spectral"):
                gap = max(gap, strategy_results[(name, strat)]["log"] - base)
        return gap

    assert benchmark(worst_gap) < 30.0


def test_no_strategy_breaks_rollback_bound(strategy_results, benchmark):
    """Every strategy keeps %rl at or under the theory + margin."""
    def check():
        return max(v["rl"] for v in strategy_results.values())

    assert benchmark(check) <= 62.5 + 15.0


def test_locality_correlates_with_low_logging(strategy_results, benchmark):
    """Within a kernel, the strategy with the best locality never logs the
    most — the paper's locality/isolation objectives are the right ones."""
    def check():
        for name in KERNELS:
            entries = [v for (k, _s), v in strategy_results.items() if k == name]
            best_locality = max(entries, key=lambda v: v["locality"])
            worst_log = max(entries, key=lambda v: v["log"])
            if best_locality["log"] > worst_log["log"]:
                return name
        return None

    assert benchmark(check) is None
