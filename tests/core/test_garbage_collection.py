"""Garbage collection (Section III-A-4): checkpoints and logs below the
smallest current epoch can be deleted, and recovery still works after."""

import numpy as np

from repro.apps.stencil import Stencil1D
from repro.core import ProtocolConfig, build_ft_world


def factory(rank, size):
    return Stencil1D(rank, size, niters=40, cells=4)


def cfg():
    return ProtocolConfig(checkpoint_interval=2e-5, rank_stagger=2e-6)


def test_gc_removes_old_checkpoints_and_logs():
    world, ctl = build_ft_world(6, factory, cfg())
    world.launch()
    world.run()
    before = ctl.store.count()
    report = ctl.collect_garbage()
    assert report["min_epoch"] == min(p.state.epoch for p in ctl.protocols)
    assert ctl.store.count() == before - report["checkpoints_removed"]
    # every surviving checkpoint is at or above the bound
    for rank in range(6):
        assert all(e >= report["min_epoch"] for e in ctl.store.epochs(rank))
    for proto in ctl.protocols:
        assert all(lm.epoch_recv >= report["min_epoch"] for lm in proto.state.logs.values())


def test_gc_keeps_epochs_needed_for_recovery():
    """After GC, inject a failure: recovery must still find every checkpoint
    the recovery line asks for (the paper's safety argument: nobody ever
    rolls below the smallest current epoch)."""
    world, ctl = build_ft_world(6, factory, cfg())
    # run half the app, GC, then fail
    world.engine.schedule_at(5e-5, lambda: ctl.collect_garbage())
    ctl.inject_failure(8e-5, 3)
    ctl.arm()
    world.launch()
    world.run()

    ref_world, _ = build_ft_world(6, factory, cfg())
    ref_world.launch()
    ref_world.run()
    for r in range(6):
        np.testing.assert_allclose(
            ref_world.programs[r].result(), world.programs[r].result()
        )


def test_gc_counts_accumulate():
    world, ctl = build_ft_world(4, factory, cfg())
    world.launch()
    world.run()
    r1 = ctl.collect_garbage()
    r2 = ctl.collect_garbage()
    assert r2["checkpoints_removed"] == 0  # idempotent
    assert ctl.store.checkpoints_collected == r1["checkpoints_removed"]


def test_gc_mid_round_raises():
    """Regression (chaos-derived): GC during an in-flight recovery round
    sees the transient epochs of the abandoned branch — the min-epoch
    bound is unsafe, so the call must be refused."""
    import pytest

    from repro.errors import ProtocolError

    world, ctl = build_ft_world(6, factory, cfg())
    ref_world, _ = build_ft_world(6, factory, cfg())
    ref_world.launch()
    ref_world.run()
    horizon = ref_world.engine.now

    seen = {}

    def poke():
        if ctl._round_in_progress:
            with pytest.raises(ProtocolError, match="in flight"):
                ctl.collect_garbage()
            seen["mid_round"] = True
        else:
            world.engine.schedule(5e-7, poke)

    ctl.inject_failure(horizon / 2, 3)
    ctl.arm()
    world.engine.schedule_at(horizon / 2, poke)
    world.launch()
    world.run()
    assert seen.get("mid_round")
    assert world.all_done


def test_gc_deferred_runs_after_settle():
    """defer=True parks the GC while a round (and everything queued
    behind it) is in flight and runs it exactly once after settle."""
    world, ctl = build_ft_world(6, factory, cfg())
    ref_world, _ = build_ft_world(6, factory, cfg())
    ref_world.launch()
    ref_world.run()
    horizon = ref_world.engine.now

    deferred = {}

    def poke():
        if ctl._round_in_progress:
            assert ctl.collect_garbage(defer=True) is None
            assert ctl._gc_deferred
            deferred["parked"] = True
        else:
            world.engine.schedule(5e-7, poke)

    ctl.inject_failure(horizon / 2, 2)
    ctl.arm()
    world.engine.schedule_at(horizon / 2, poke)
    world.launch()
    world.run()
    assert deferred.get("parked")
    assert not ctl._gc_deferred  # executed at settle
    assert world.all_done
    # recovery after the deferred GC stayed valid
    for p_ref, p in zip(ref_world.programs, world.programs):
        np.testing.assert_allclose(p_ref.result(), p.result())


def test_gc_refused_without_cross_epoch_logging():
    """Without epoch-crossing logging the domino is unbounded, so no
    min-epoch reclamation bound exists (found by chaos fuzzing: a
    post-GC failure needed a reclaimed checkpoint)."""
    import pytest

    from repro.errors import ProtocolError

    world, ctl = build_ft_world(
        6, factory,
        ProtocolConfig(checkpoint_interval=2e-5, rank_stagger=2e-6,
                       log_cross_epoch=False),
    )
    world.launch()
    world.run()
    with pytest.raises(ProtocolError, match="unsound"):
        ctl.collect_garbage()
