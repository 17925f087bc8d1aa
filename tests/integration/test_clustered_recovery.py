"""Clustering + staggered epochs (Section V-E-3): failures roll back only
the failed cluster and clusters at higher epochs; messages flowing up-epoch
are logged."""

import numpy as np
import pytest

from repro.apps.stencil import Stencil2D
from repro.core import ProtocolConfig

from ..conftest import assert_valid_execution, run_failure_free, run_with_failures


def factory(rank, size):
    return Stencil2D(rank, size, niters=40, block=3)


CLUSTERS = [0, 0, 0, 0, 1, 1, 1, 1]


def clustered_config():
    return ProtocolConfig(
        checkpoint_interval=3e-5,
        cluster_of=CLUSTERS,
        cluster_stagger=5e-6,
        rank_stagger=1e-6,
    )


def test_initial_epochs_separated_by_two():
    world, ctl = run_failure_free(8, factory, clustered_config())
    # epochs advanced during the run but cluster-1 stays 2 ahead modulo
    # checkpoint staggering; check the *initial* assignment instead
    assert ctl.config.initial_epoch(0) == 1
    assert ctl.config.initial_epoch(4) == 3


def test_failure_in_high_epoch_cluster_spares_low_cluster():
    """The paper's asymmetry: messages from the lower-epoch cluster to the
    higher one are logged, so a failure in the high cluster never drags the
    low cluster back."""
    ref, _ = run_failure_free(8, factory, clustered_config())
    world, ctl = run_with_failures(8, factory, [(9e-5, 6)], clustered_config())
    assert_valid_execution(ref, world)
    rolled = set(ctl.recovery_reports[0].rolled_back)
    assert rolled <= {4, 5, 6, 7}
    assert 6 in rolled


def test_failure_in_low_epoch_cluster_rolls_everyone():
    """...and conversely, the lowest-epoch cluster's failure rolls back all
    clusters at higher epochs (here: everyone)."""
    ref, _ = run_failure_free(8, factory, clustered_config())
    world, ctl = run_with_failures(8, factory, [(9e-5, 1)], clustered_config())
    assert_valid_execution(ref, world)
    rolled = set(ctl.recovery_reports[0].rolled_back)
    assert rolled == set(range(8))


def test_inter_cluster_messages_logged():
    world, ctl = run_failure_free(8, factory, clustered_config())
    stats = ctl.logging_stats()
    assert stats["messages_logged"] > 0
    assert stats["log_fraction"] < 0.5
    # up-epoch senders are cluster-0 ranks (plus intra-cluster epoch skew)
    cluster0_logged = sum(ctl.protocols[r].messages_logged for r in range(4))
    assert cluster0_logged > 0


def test_unclustered_logs_less_but_rolls_more():
    """Without clustering everything sits at the same epoch: almost nothing
    is logged, but a failure rolls back (almost) everyone — the trade-off
    Table I quantifies."""
    plain = ProtocolConfig(checkpoint_interval=3e-5, rank_stagger=1e-6)
    world_p, ctl_p = run_with_failures(8, factory, [(9e-5, 6)], plain)
    world_c, ctl_c = run_with_failures(8, factory, [(9e-5, 6)], clustered_config())
    rolled_plain = len(ctl_p.recovery_reports[0].rolled_back)
    rolled_clustered = len(ctl_c.recovery_reports[0].rolled_back)
    assert rolled_clustered <= rolled_plain
    assert ctl_c.logging_stats()["messages_logged"] >= ctl_p.logging_stats()[
        "messages_logged"
    ]


def test_four_clusters_partial_rollback():
    clusters = [0, 0, 1, 1, 2, 2, 3, 3]
    cfg = ProtocolConfig(checkpoint_interval=3e-5, cluster_of=clusters,
                         cluster_stagger=4e-6, rank_stagger=1e-6)
    ref, _ = run_failure_free(8, factory, cfg)
    # fail in the highest-epoch cluster (cluster 3 -> ranks 6,7)
    world, ctl = run_with_failures(8, factory, [(9e-5, 7)], cfg)
    assert_valid_execution(ref, world)
    rolled = set(ctl.recovery_reports[0].rolled_back)
    assert rolled <= {6, 7}
