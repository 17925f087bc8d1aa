"""Tests for the comparison protocols: coordinated checkpointing,
pessimistic message logging, plain uncoordinated (domino), and CIC."""

import numpy as np
import pytest

from repro.apps.base import RankProgram
from repro.apps.stencil import Stencil1D
from repro.baselines import (
    CICConfig,
    CICController,
    CLConfig,
    CLController,
    PMLConfig,
    PMLController,
    run_domino_analysis,
)
from repro.core import build_world
from repro.simmpi import World


def factory(rank, size):
    return Stencil1D(rank, size, niters=25, cells=4)


@pytest.fixture(scope="module")
def reference():
    world = World(6, factory)
    world.launch()
    world.run()
    return [p.result().copy() for p in world.programs]


# ----------------------------------------------------------------------
# Coordinated checkpointing (global restart)
# ----------------------------------------------------------------------
def test_cl_failure_free_rounds_complete(reference):
    world, ctl = build_world(CLController(6, CLConfig(snapshot_interval=2e-5)), factory)
    world.launch()
    world.run()
    assert ctl.completed_rounds
    assert ctl.global_restarts == 0
    for r, p in enumerate(world.programs):
        np.testing.assert_allclose(reference[r], p.result())


@pytest.mark.parametrize("fail_time", [3e-5, 6e-5, 1.0e-4])
def test_cl_recovers_with_global_restart(reference, fail_time):
    world, ctl = build_world(CLController(6, CLConfig(snapshot_interval=2e-5)), factory)
    ctl.inject_failure(fail_time, 3)
    ctl.arm()
    world.launch()
    world.run()
    assert ctl.global_restarts == 1
    assert ctl.rolled_back_history == [6]  # every process rolled back
    for r, p in enumerate(world.programs):
        np.testing.assert_allclose(reference[r], p.result())


def test_cl_failure_before_first_round_restarts_from_scratch(reference):
    world, ctl = build_world(CLController(6, CLConfig(snapshot_interval=1.0)), factory)
    ctl.inject_failure(3e-5, 1)
    ctl.arm()
    world.launch()
    world.run()
    assert ctl.completed_rounds in ([], [0]) or ctl.completed_rounds == []
    for r, p in enumerate(world.programs):
        np.testing.assert_allclose(reference[r], p.result())


def test_cl_two_failures(reference):
    world, ctl = build_world(CLController(6, CLConfig(snapshot_interval=2e-5)), factory)
    ctl.inject_failure(5e-5, 0)
    ctl.inject_failure(1.1e-4, 5)
    ctl.arm()
    world.launch()
    world.run()
    assert ctl.global_restarts == 2
    for r, p in enumerate(world.programs):
        np.testing.assert_allclose(reference[r], p.result())


# ----------------------------------------------------------------------
# Pessimistic sender-based message logging
# ----------------------------------------------------------------------
def test_pml_logs_everything(reference):
    world, ctl = build_world(
        PMLController(6, PMLConfig(checkpoint_interval=2e-5)), factory)
    world.launch()
    world.run()
    stats = ctl.logging_stats()
    assert stats["log_fraction"] == 1.0


@pytest.mark.parametrize("fail_rank", [0, 3, 5])
def test_pml_restarts_only_failed_rank(reference, fail_rank):
    world, ctl = build_world(
        PMLController(6, PMLConfig(checkpoint_interval=2e-5, rank_stagger=1e-6)),
        factory,
    )
    ctl.inject_failure(6e-5, fail_rank)
    ctl.arm()
    world.launch()
    world.run()
    assert ctl.rolled_back_history == [1]
    for r, p in enumerate(world.programs):
        np.testing.assert_allclose(reference[r], p.result())


def test_pml_failure_before_checkpoint(reference):
    world, ctl = build_world(PMLController(6, PMLConfig(checkpoint_interval=1.0)), factory)
    ctl.inject_failure(4e-5, 2)
    ctl.arm()
    world.launch()
    world.run()
    for r, p in enumerate(world.programs):
        np.testing.assert_allclose(reference[r], p.result())


def test_pml_replays_in_determinant_order(reference):
    world, ctl = build_world(
        PMLController(6, PMLConfig(checkpoint_interval=2e-5, rank_stagger=1e-6)),
        factory,
    )
    ctl.inject_failure(8e-5, 1)
    ctl.arm()
    world.launch()
    world.run()
    hook = ctl.hooks[1]
    assert not hook.replaying
    assert hook._replay_plan == []
    # determinants are per-source monotone
    per_src = {}
    for src, seq in hook.determinants:
        assert seq > per_src.get(src, 0)
        per_src[src] = seq


# ----------------------------------------------------------------------
# Plain uncoordinated: the domino effect (Section V-E-2)
# ----------------------------------------------------------------------
def test_domino_rolls_most_processes_back():
    stats = run_domino_analysis(
        6, factory, checkpoint_interval=2e-5, sample_interval=3e-5, jitter=0.5
    )
    assert stats.mean_rolled_back_fraction > 0.75
    assert stats.restart_from_beginning_fraction > 0.5


def test_domino_vs_protocol_with_logging():
    """The protocol's whole point: with the epoch-logging rule enabled and
    clustering, strictly fewer processes roll back than plain
    uncoordinated checkpointing on the same workload."""
    from repro.analysis.rollback import measure_rollback
    from repro.core import ProtocolConfig

    cfg = ProtocolConfig(checkpoint_interval=2e-5, cluster_of=[0, 0, 0, 1, 1, 1],
                         cluster_stagger=4e-6, rank_stagger=1e-6,
                         lightweight=True)
    _, _, protocol_stats = measure_rollback(6, factory, cfg, 3e-5)

    domino = run_domino_analysis(6, factory, checkpoint_interval=2e-5,
                                 sample_interval=3e-5, jitter=0.5)
    assert protocol_stats.mean_fraction < domino.mean_rolled_back_fraction


# ----------------------------------------------------------------------
# Communication-induced checkpointing
# ----------------------------------------------------------------------
def test_cic_counts_forced_checkpoints():
    world, ctl = build_world(
        CICController(6, CICConfig(checkpoint_interval=2e-5, rank_stagger=4e-6)),
        factory,
    )
    world.launch()
    world.run()
    stats = ctl.stats()
    assert stats["basic_checkpoints"] > 0
    assert stats["forced_checkpoints"] > 0
    assert stats["amplification"] > 1.5  # the related-work complaint


def test_cic_indices_propagate():
    world, ctl = build_world(
        CICController(6, CICConfig(checkpoint_interval=2e-5, rank_stagger=4e-6)),
        factory,
    )
    world.launch()
    world.run()
    indices = [h.index for h in ctl.hooks]
    # staggered basic checkpoints force everyone close to the max: a rank
    # only lags by whatever it has not heard about since its last receive
    assert max(indices) - min(indices) <= 4
    assert min(indices) > 0


# ----------------------------------------------------------------------
# The shared drain under a coordinated round
# ----------------------------------------------------------------------
class Straggler(RankProgram):
    """Rank 0 sends, then reaches the boundary; rank 1 reaches its boundary
    *before* receiving: both pause with the message still in flight."""

    def __init__(self, rank, size):
        super().__init__(rank, size)
        self.state = {"got": []}

    def run(self, api):
        for i in range(3):
            yield api.compute(1e-5)
            if api.rank == 0:
                yield api.send(1, ("m", i), tag=1, size=200_000)
                yield api.maybe_checkpoint()
            else:
                yield api.maybe_checkpoint()
                self.state["got"].append((yield api.recv(0, tag=1)))


def test_cl_round_completes_when_the_straggler_lands():
    """The round completes at the instant the straggler lands: the
    delivery that empties the network runs the round, nothing polls."""
    world, ctl = build_world(CLController(2, CLConfig()), Straggler)
    completed_at, arrivals = [], []
    complete = ctl._complete_round
    ctl._complete_round = lambda: (completed_at.append(world.engine.now),
                                   complete())
    receive = world.network._receivers[1]
    world.network._receivers[1] = lambda env: (
        arrivals.append(world.engine.now), receive(env))
    ctl.trigger_snapshot()
    world.launch()
    world.run()
    assert completed_at == [arrivals[0]] == [0.0001805672268907563]
    assert ctl.completed_rounds == [1]
    assert world.engine.now == 0.0003714344537815126
    assert world.engine.events_dispatched == 18
    assert world.programs[1].state["got"] == [("m", 0), ("m", 1), ("m", 2)]


def test_cl_failure_during_the_drain_abandons_the_round():
    """Both ranks wait at the boundary for the straggler when rank 0
    fails: the global restart drops the round, so no snapshot is taken
    after it and no round completes."""
    world, ctl = build_world(CLController(2, CLConfig()), Straggler)
    captures = []
    for hook in ctl.hooks:
        hook.capture = lambda n, _c=hook.capture: (
            captures.append(world.engine.now), _c(n))
    ctl.trigger_snapshot()
    ctl.inject_failure(1e-4, 0)
    ctl.arm()
    world.launch()
    drained = []
    world.engine.schedule_at(
        1e-4 - 1e-9, lambda: drained.append(world.network.on_drained))
    world.run()
    assert drained[0] is not None  # the failure lands inside the drain
    assert ctl.global_restarts == 1
    assert ctl.completed_rounds == []
    assert captures == []
    assert world.network.on_drained is None
    assert world.programs[1].state["got"] == [("m", 0), ("m", 1), ("m", 2)]
