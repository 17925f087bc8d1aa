"""Tests for the offline analyses (rollback, logging, theory, matrices)."""

import numpy as np
import pytest

from repro.analysis import (
    SpeSampler,
    collect_matrix,
    expected_rollback_fraction,
    expected_rolled_back_clusters,
    matrix_stats,
    monte_carlo_rollback_fraction,
    render_matrix,
    rollback_analysis,
    rollback_fraction_given_position,
)
from repro.analysis.rollback import SpeSnapshot, measure_rollback
from repro.apps.stencil import Stencil1D, Stencil2D
from repro.core import ProtocolConfig, build_ft_world

from .live_cell import live_rollback


def factory(rank, size):
    return Stencil1D(rank, size, niters=30, cells=4)


# ----------------------------------------------------------------------
# Theory (Section V-E-3)
# ----------------------------------------------------------------------
def test_expected_rolled_back_clusters():
    assert expected_rolled_back_clusters(4) == 2.5
    assert expected_rolled_back_clusters(1) == 1.0


@pytest.mark.parametrize("p,expected", [(4, 62.5), (8, 56.25), (16, 53.125)])
def test_expected_rollback_fraction_matches_paper_columns(p, expected):
    """Table I's near-constant %rl columns are exactly (p+1)/2p."""
    assert 100 * expected_rollback_fraction(p) == pytest.approx(expected)


def test_fraction_approaches_half():
    assert expected_rollback_fraction(1000) == pytest.approx(0.5, abs=1e-3)


def test_position_fractions():
    assert rollback_fraction_given_position(4, 0) == 1.0
    assert rollback_fraction_given_position(4, 3) == 0.25
    with pytest.raises(ValueError):
        rollback_fraction_given_position(4, 4)


def test_monte_carlo_agrees_with_closed_form():
    mc = monte_carlo_rollback_fraction(8, trials=20000, seed=1)
    assert mc == pytest.approx(expected_rollback_fraction(8), abs=0.01)


# ----------------------------------------------------------------------
# Rollback analysis (the Table I methodology)
# ----------------------------------------------------------------------
def test_sampler_takes_periodic_snapshots():
    cfg = ProtocolConfig(checkpoint_interval=2e-5, rank_stagger=2e-6,
                         lightweight=True)
    world, ctl = build_ft_world(6, factory, cfg)
    sampler = SpeSampler(ctl, interval=3e-5)
    sampler.arm()
    world.launch()
    world.run()
    assert len(sampler.snapshots) >= 2
    times = [s.time for s in sampler.snapshots]
    assert times == sorted(times)
    assert all(len(s.spe_tables) == 6 for s in sampler.snapshots)


def test_measurement_of_a_short_run_snapshots_its_end():
    """A run shorter than one sample period still gets one snapshot: the
    state the run ended in, live and derived from the trace alike."""
    cfg = ProtocolConfig(checkpoint_interval=2e-5, rank_stagger=2e-6,
                         lightweight=True)
    world, ctl = build_ft_world(6, factory, cfg)
    world.launch()
    end = world.run()
    period = 10 * end
    final = SpeSampler(ctl, period).take()
    for measure in (live_rollback, measure_rollback):
        logs, snapshots, stats = measure(6, factory, cfg, period)
        [snap] = snapshots
        assert snap.time >= end
        assert (snap.spe_tables, snap.epochs) == (final.spe_tables,
                                                  final.epochs)
        assert stats.trials == 6 and logs == ctl.logging_stats()


def test_rollback_analysis_counts():
    snap = SpeSnapshot(
        time=0.0,
        spe_tables={
            0: {2: (0, {})},
            1: {2: (0, {0: 2})},
            2: {1: (0, {})},
        },
        epochs={0: 2, 1: 2, 2: 1},
    )
    stats = rollback_analysis([snap], 3)
    assert stats.trials == 3
    # failure of 0 pulls 1; failures of 1 and 2 are isolated
    assert sorted(stats.counts) == [1, 1, 2]
    assert stats.mean_fraction == pytest.approx(4 / 9)
    assert stats.per_rank_mean[0] == 2.0


def test_rollback_analysis_specific_ranks():
    snap = SpeSnapshot(time=0.0, spe_tables={0: {1: (0, {})}, 1: {1: (0, {})}},
                       epochs={0: 1, 1: 1})
    stats = rollback_analysis([snap], 2, failed_ranks=[1])
    assert stats.counts == [1]
    assert stats.percent == 50.0


def test_rollback_analysis_reordered_subset_of_ranks():
    """Counts follow ``failed_ranks``' order within each snapshot and
    ``per_rank_mean`` is keyed by rank, not by position."""
    tables = {
        0: {1: (0, {}), 2: (4, {})},
        1: {1: (0, {0: 1}), 2: (4, {0: 2})},   # 0 failing pulls 1
        2: {1: (0, {1: 1}), 2: (4, {})},       # 1 failing in epoch 1 pulls 2
        3: {1: (0, {})},
    }
    snaps = [
        SpeSnapshot(time=0.0, spe_tables=tables, epochs={0: 1, 1: 1, 2: 1, 3: 1}),
        SpeSnapshot(time=1.0, spe_tables=tables, epochs={0: 2, 1: 2, 2: 2, 3: 1}),
    ]
    stats = rollback_analysis(snaps, 4, failed_ranks=[3, 0, 1])
    assert stats.trials == 6
    assert stats.counts == [1, 3, 2, 1, 2, 1]
    assert stats.per_rank_mean == {3: 1.0, 0: 2.5, 1: 1.5}
    assert list(stats.per_rank_mean) == [3, 0, 1]
    full = rollback_analysis(snaps, 4)
    assert [full.per_rank_mean[r] for r in (3, 0, 1)] == [1.0, 2.5, 1.5]


# ----------------------------------------------------------------------
# Logging stats (Table I's %log is 100 * logging_stats()["log_fraction"])
# ----------------------------------------------------------------------
def test_log_stats_zero_safe():
    _world, ctl = build_ft_world(2, factory)  # not launched: nothing sent
    stats = ctl.logging_stats()
    assert stats["messages_total"] == 0 and stats["log_fraction"] == 0.0


# ----------------------------------------------------------------------
# Communication matrices (Fig. 8)
# ----------------------------------------------------------------------
def test_collect_matrix_shape_and_content():
    m = collect_matrix(8, lambda r, s: Stencil2D(r, s, niters=3, block=3))
    assert m.shape == (8, 8)
    assert (np.diag(m) == 0).all()
    assert m.sum() > 0


def test_matrix_stats():
    m = np.array([[0, 3], [1, 0]])
    stats = matrix_stats(m)
    assert stats["total_messages"] == 4
    assert stats["nonzero_pairs"] == 2
    assert stats["fill"] == 1.0
    assert stats["max_pair"] == 3


def test_render_matrix_has_cluster_overlay():
    m = np.arange(16).reshape(4, 4)
    out = render_matrix(m, cluster_of=[0, 0, 1, 1], epochs={0: 1, 1: 3})
    assert "|" in out
    assert "-" in out
    assert "Ep1" in out and "Ep3" in out


def test_render_matrix_coarsens_large():
    m = np.ones((256, 256))
    out = render_matrix(m, max_width=64)
    assert len(out.splitlines()[0]) <= 80
