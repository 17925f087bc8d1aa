"""Controller and recovery-process flow tests: drain, settle, rounds,
watchdog, lightweight-mode guards."""

import pytest

from repro.apps.stencil import Stencil1D
from repro.core import ProtocolConfig, build_ft_world
from repro.core.controller import FTController
from repro.core.protocol import Status
from repro.errors import ProtocolError


def factory(rank, size):
    return Stencil1D(rank, size, niters=25, cells=4)


def test_cluster_map_length_validated():
    with pytest.raises(ProtocolError):
        FTController(4, ProtocolConfig(cluster_of=[0, 1]))


def test_lightweight_restore_rejected():
    world, ctl = build_ft_world(4, factory, ProtocolConfig(lightweight=True))
    with pytest.raises(ProtocolError):
        ctl.restore_rank(0, 1)


def test_lightweight_skips_checkpoint_storage():
    cfg = ProtocolConfig(checkpoint_interval=2e-5, lightweight=True)
    world, ctl = build_ft_world(4, factory, cfg)
    world.launch()
    world.run()
    assert ctl.store.checkpoints_taken > 0
    assert ctl.store.count() == 0  # counted but not stored


def test_retain_payloads_off_keeps_counts():
    cfg = ProtocolConfig(lightweight=True, retain_payloads=False,
                         checkpoint_interval=2e-5, rank_stagger=2e-6)
    world, ctl = build_ft_world(4, factory, cfg)
    world.launch()
    world.run()
    stats = ctl.logging_stats()
    assert stats["messages_total"] > 0
    for proto in ctl.protocols:
        for lm in proto.state.logs.values():
            assert lm.payload is None
            assert lm.size > 0


def test_recovery_round_numbers_monotone():
    cfg = ProtocolConfig(checkpoint_interval=2e-5, rank_stagger=3e-6)
    world, ctl = build_ft_world(6, factory, cfg)
    ctl.inject_failure(4e-5, 1)
    ctl.inject_failure(9e-5, 4)
    ctl.arm()
    world.launch()
    world.run()
    rounds = [r.round_no for r in ctl.recovery_reports]
    assert rounds == sorted(rounds) == list(dict.fromkeys(rounds))


def test_failed_rank_restored_to_latest_checkpoint():
    cfg = ProtocolConfig(checkpoint_interval=2e-5, rank_stagger=3e-6)
    world, ctl = build_ft_world(6, factory, cfg)
    ctl.inject_failure(7e-5, 2)
    ctl.arm()
    world.launch()
    world.run()
    rl = ctl.recovery_reports[0].recovery_line
    # the failed rank restarted at (or below) its last checkpoint epoch
    assert rl[2][0] >= 1


def test_recovery_report_timing():
    cfg = ProtocolConfig(checkpoint_interval=2e-5, rank_stagger=3e-6)
    world, ctl = build_ft_world(6, factory, cfg)
    ctl.inject_failure(6e-5, 3)
    ctl.arm()
    world.launch()
    world.run()
    rep = ctl.recovery_reports[0]
    assert rep.started_at >= 6e-5
    assert rep.finished_at > rep.started_at


def test_no_watchdog_interventions_on_single_failures():
    cfg = ProtocolConfig(checkpoint_interval=2e-5, rank_stagger=3e-6)
    world, ctl = build_ft_world(6, factory, cfg)
    ctl.inject_failure(6e-5, 0)
    ctl.arm()
    world.launch()
    world.run()
    assert ctl.stall_flushes == 0
    assert ctl.stall_releases == 0


def test_statuses_and_queues_clean_after_recovery():
    cfg = ProtocolConfig(checkpoint_interval=2e-5, rank_stagger=3e-6)
    world, ctl = build_ft_world(6, factory, cfg)
    ctl.inject_failure(6e-5, 3)
    ctl.arm()
    world.launch()
    world.run()
    for proto in ctl.protocols:
        assert proto.status is Status.RUNNING
        assert proto.replay == {}
        assert proto._orph_lookup == {}  # every expected orphan arrived
    assert not ctl.recovery.active
    assert world.network.in_flight_count() == 0


def test_injector_requires_arming():
    cfg = ProtocolConfig(checkpoint_interval=2e-5)
    world, ctl = build_ft_world(4, factory, cfg)
    ctl.inject_failure(5e-5, 1)
    # never armed: the run completes failure-free
    world.launch()
    world.run()
    assert ctl.recovery_reports == []


def test_epoch_monotone_per_rank():
    cfg = ProtocolConfig(checkpoint_interval=2e-5, rank_stagger=3e-6)
    world, ctl = build_ft_world(4, factory, cfg)
    world.launch()
    world.run()
    for proto in ctl.protocols:
        epochs = sorted(proto.state.spe)
        assert proto.state.epoch == epochs[-1]
        assert epochs == list(range(epochs[0], epochs[-1] + 1))
