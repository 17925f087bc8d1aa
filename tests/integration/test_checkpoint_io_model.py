"""Checkpoint I/O cost model: writes stall processes; shared storage
serialises concurrent writers (Section I's burst argument, quantified)."""

import numpy as np
import pytest

from repro.apps.stencil import Stencil1D
from repro.baselines import CLConfig, CLController
from repro.core import ProtocolConfig, build_ft_world, build_world

from ..conftest import assert_valid_execution, run_failure_free, run_with_failures


def factory(rank, size):
    return Stencil1D(rank, size, niters=20, cells=4)


def test_write_cost_extends_runtime():
    base = ProtocolConfig(checkpoint_interval=3e-5, rank_stagger=2e-6)
    costly = ProtocolConfig(checkpoint_interval=3e-5, rank_stagger=2e-6,
                            checkpoint_size_bytes=10_000,
                            storage_bandwidth=1e9)
    w0, _ = run_failure_free(4, factory, base)
    w1, c1 = run_failure_free(4, factory, costly)
    assert w1.engine.now > w0.engine.now
    assert c1.checkpoint_write_time > 0


def test_shared_storage_serialises_writers():
    kw = dict(checkpoint_interval=3e-5, rank_stagger=0.0,
              checkpoint_size_bytes=50_000, storage_bandwidth=1e9)
    _, shared = run_failure_free(4, factory, ProtocolConfig(**kw))
    # simultaneous checkpoint times + shared device -> queueing delay on
    # top of the transfers themselves
    assert shared.checkpoint_write_time > shared.storage.busy_time > 0


def test_staggering_avoids_the_queue():
    kw = dict(checkpoint_interval=3e-5, checkpoint_size_bytes=50_000,
              storage_bandwidth=1e9)
    _, burst = run_failure_free(4, factory, ProtocolConfig(**kw,
                                                           rank_stagger=0.0))
    _, staggered = run_failure_free(4, factory, ProtocolConfig(
        **kw, rank_stagger=8e-6))
    assert staggered.checkpoint_write_time < burst.checkpoint_write_time


def test_recovery_still_valid_with_io_costs():
    cfg = ProtocolConfig(checkpoint_interval=3e-5, rank_stagger=2e-6,
                         checkpoint_size_bytes=10_000)
    ref, _ = run_failure_free(6, factory, cfg)
    world, _ = run_with_failures(6, factory, [(ref.engine.now / 2, 2)], cfg)
    assert_valid_execution(ref, world)


def test_coordinated_burst_time_scales_with_ranks():
    def burst_for(nprocs):
        world, ctl = build_world(
            CLController(nprocs, CLConfig(snapshot_interval=4e-5,
                                          snapshot_size_bytes=50_000,
                                          storage_bandwidth=1e9)),
            factory,
        )
        world.launch()
        world.run()
        rounds = len(ctl.completed_rounds)
        return ctl.io_burst_time / max(1, rounds)

    assert burst_for(8) > 1.5 * burst_for(4)


def test_coordinated_with_io_still_recovers():
    world, ctl = build_world(
        CLController(6, CLConfig(snapshot_interval=4e-5, snapshot_size_bytes=20_000)),
        factory,
    )
    ctl.inject_failure(9e-5, 3)
    ctl.arm()
    world.launch()
    world.run()
    ref = run_failure_free(6, factory, ProtocolConfig())[0]
    for r in range(6):
        np.testing.assert_allclose(ref.programs[r].result(),
                                   world.programs[r].result())
