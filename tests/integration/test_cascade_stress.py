"""Cascaded-failure stress tests: Poisson failure arrivals over a long run.

The paper proves single-recovery correctness; repeated recoveries stress
every cross-branch staleness documented in DESIGN.md §7 (orphan phase
skew, stale reception epochs, replays purged in flight by the *next*
failure).  Each scenario asserts the full validity criterion: logical
send sequences — including payload digests, which catch silent state
corruption that contracting numerics would wash out of final results —
and final states equal to the failure-free run.
"""

import random

import numpy as np
import pytest

from repro.apps import Stencil2D
from repro.core import ProtocolConfig, build_ft_world
from repro.core.clustering import block_clusters

NPROCS = 8


def factory(rank, size):
    return Stencil2D(rank, size, niters=60, block=3)


def config():
    return ProtocolConfig(
        checkpoint_interval=3e-5,
        cluster_of=block_clusters(NPROCS, 4),
        cluster_stagger=5e-6,
        rank_stagger=5e-7,
        stall_timeout=1e-4,
    )


@pytest.fixture(scope="module")
def reference():
    world, _ = build_ft_world(NPROCS, factory, config(),
                              record_sequences=True)
    world.launch()
    duration = world.run()
    return {
        "results": [p.result().copy() for p in world.programs],
        "seqs": world.tracer.logical_send_sequences(),
        "duration": duration,
    }


@pytest.mark.parametrize("seed", range(8))
def test_poisson_failure_cascade(reference, seed):
    rng = random.Random(seed)
    world, ctl = build_ft_world(NPROCS, factory, config(),
                                record_sequences=True)
    t = 0.0
    for _ in range(rng.randrange(2, 9)):
        t += rng.expovariate(1.0 / 1.2e-4)
        ctl.inject_failure(t, rng.randrange(NPROCS))
    ctl.arm()
    world.launch()
    world.run()
    # full validity: the digest comparison inside logical_send_sequences
    # raises on any same-date content divergence
    assert reference["seqs"] == world.tracer.logical_send_sequences()
    for ref, prog in zip(reference["results"], world.programs):
        np.testing.assert_allclose(ref, prog.result())
    assert len(ctl.recovery_reports) >= 1


def test_rapid_fire_same_rank(reference):
    """The same rank dying repeatedly in quick succession."""
    world, ctl = build_ft_world(NPROCS, factory, config(),
                                record_sequences=True)
    for i in range(5):
        ctl.inject_failure(5e-5 + i * 6e-5, 6)
    ctl.arm()
    world.launch()
    world.run()
    assert reference["seqs"] == world.tracer.logical_send_sequences()
    for ref, prog in zip(reference["results"], world.programs):
        np.testing.assert_allclose(ref, prog.result())
    # a failure landing in the narrow window where the rank is already
    # dead (killed, restore pending) is skipped by the injector
    assert 4 <= len(ctl.recovery_reports) <= 5


def test_alternating_cluster_failures(reference):
    """Failures ping-ponging between the lowest- and highest-epoch
    clusters (worst case for cross-branch epoch skew)."""
    world, ctl = build_ft_world(NPROCS, factory, config(),
                                record_sequences=True)
    for i, rank in enumerate([0, 7, 1, 6, 2]):
        ctl.inject_failure(6e-5 + i * 7e-5, rank)
    ctl.arm()
    world.launch()
    world.run()
    assert reference["seqs"] == world.tracer.logical_send_sequences()
    for ref, prog in zip(reference["results"], world.programs):
        np.testing.assert_allclose(ref, prog.result())


def test_replay_purged_in_flight_regression(reference):
    """Regression for DESIGN.md §7.2's hardest case: a failure arriving
    while the previous round's replays are still in flight purges them;
    the re-entered NonAck coverage of the following round must re-send
    them (found by fuzzing: two failures ~5 us apart)."""
    world, ctl = build_ft_world(NPROCS, factory, config(),
                                record_sequences=True)
    ctl.inject_failure(1.70e-4, 6)
    ctl.inject_failure(1.75e-4, 7)
    ctl.inject_failure(2.37e-4, 4)
    ctl.arm()
    world.launch()
    world.run()
    assert reference["seqs"] == world.tracer.logical_send_sequences()
    for ref, prog in zip(reference["results"], world.programs):
        np.testing.assert_allclose(ref, prog.result())


def test_cascade_with_anonymous_receives():
    """Cascaded failures through an ANY_SOURCE workload: the hardest
    combination for replay ordering (anonymous matching + phase skew)."""
    import random

    from repro.apps import ReduceTreeKernel

    def rt_factory(r, s):
        return ReduceTreeKernel(r, s, niters=20)

    cfg = ProtocolConfig(checkpoint_interval=3e-5,
                         cluster_of=block_clusters(NPROCS, 4),
                         cluster_stagger=5e-6, rank_stagger=5e-7,
                         stall_timeout=1e-4)
    ref, _ctl = None, None
    world0, _ = build_ft_world(NPROCS, rt_factory, cfg,
                               record_sequences=True)
    world0.launch()
    world0.run()
    ref_totals = [p.result() for p in world0.programs]
    ref_seqs = world0.tracer.logical_send_sequences()
    for seed in range(4):
        rng = random.Random(100 + seed)
        world, ctl = build_ft_world(NPROCS, rt_factory, cfg,
                                    record_sequences=True)
        t = 0.0
        for _ in range(rng.randrange(2, 6)):
            t += rng.expovariate(1.0 / 1.5e-4)
            ctl.inject_failure(t, rng.randrange(NPROCS))
        ctl.arm()
        world.launch()
        world.run()
        assert ref_seqs == world.tracer.logical_send_sequences()
        for a, p in zip(ref_totals, world.programs):
            np.testing.assert_allclose(a, p.result())
