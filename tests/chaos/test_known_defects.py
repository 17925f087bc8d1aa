"""Known protocol defects the chaos campaigns found, tracked in tier-1.

Each test replays the exact campaign trial that exposes the defect and is
``xfail(strict=True)``: the suite goes red the day the defect is fixed (or
a change moves it), so the marker and the CHANGES.md note get removed
together instead of rotting.

The campaign trials carry the defect only while recovery timing leaves
their draws where they were; the shrunk schedules below are literal data,
so they keep pinning it when a timing change retires a campaign pair.
"""

import pytest

from repro.chaos import (FailureSpec, TrialSchedule, replay_trial,
                         run_trial_schedule)


@pytest.mark.xfail(strict=True, reason=(
    "reduce send-witness defect (CHANGES.md, PR 11): after the recovery "
    "rounds of this schedule rank 4 re-sends date 46 with a payload whose "
    "digest differs from the one witnessed before the failure"))
def test_reduce_send_witness_campaign_seed_38_trial_4():
    """``python -m repro chaos --replay 4 --seed 38`` — a ``reduce`` trial
    whose re-execution trips the ``send_witness`` sanitizer."""
    verdict = replay_trial(38, 4)
    assert verdict["schedule"]["kernel"] == "reduce"
    assert verdict["passed"], verdict["oracles"]


@pytest.mark.xfail(strict=True, reason=(
    "the reduce send-witness defect of campaign seed 38 trial 4, in a "
    "4-rank schedule whose rank 1 fails again inside its own recovery "
    "round"))
def test_reduce_send_witness_campaign_seed_45_trial_14():
    """``python -m repro chaos --replay 14 --seed 45``."""
    verdict = replay_trial(45, 14)
    assert verdict["schedule"]["kernel"] == "reduce"
    assert verdict["passed"], verdict["oracles"]


@pytest.mark.xfail(strict=True, reason=(
    "the reduce send-witness defect of campaign seed 38 trial 4.  This "
    "trial was drawn with four acks to a batch when acks could still be "
    "batched, and it fails with every ack eager too: ack batching is not "
    "the cause"))
def test_reduce_send_witness_campaign_seed_116_trial_25():
    """``python -m repro chaos --replay 25 --seed 116``."""
    verdict = replay_trial(116, 25)
    assert verdict["schedule"]["kernel"] == "reduce"
    assert verdict["passed"], verdict["oracles"]


#: ``shrink_schedule(schedule_for_trial(S, I)).minimized`` for the three
#: campaign pairs above, in that order
SHRUNK_REDUCE = {
    "seed_38_trial_4": TrialSchedule(
        seed=2334530980024247584, kernel="reduce", nprocs=8, niters=30,
        clusters=4, checkpoint_interval=3e-05, checkpoint_jitter=0.15,
        checkpoint_seed=25888, log_cross_epoch=True, cluster_stagger=0.0,
        rank_stagger=0.0, gc_frac=0.0, failures=(
            FailureSpec(rank=1, kind="after_sends", frac=0.5, delta=0.0,
                        nsends=81),
            FailureSpec(rank=1, kind="restored", frac=0.5, delta=0.0002,
                        nsends=0),
        ), bug=""),
    "seed_45_trial_14": TrialSchedule(
        seed=3191217963240217114, kernel="reduce", nprocs=4, niters=16,
        clusters=2, checkpoint_interval=2e-05, checkpoint_jitter=0.15,
        checkpoint_seed=23066, log_cross_epoch=True, cluster_stagger=0.0,
        rank_stagger=3e-06, gc_frac=0.0, failures=(
            FailureSpec(rank=1, kind="at", frac=0.57, delta=0.0, nsends=0),
            FailureSpec(rank=1, kind="recovery", frac=0.5, delta=3e-05,
                        nsends=0),
        ), bug=""),
    "seed_116_trial_25": TrialSchedule(
        seed=5929750184865899700, kernel="reduce", nprocs=8, niters=23,
        clusters=1, checkpoint_interval=2e-05, checkpoint_jitter=0.3,
        checkpoint_seed=9396, log_cross_epoch=True, cluster_stagger=0.0,
        rank_stagger=1e-06, gc_frac=0.0, failures=(
            FailureSpec(rank=5, kind="after_sends", frac=0.5, delta=0.0,
                        nsends=17),
            FailureSpec(rank=1, kind="at", frac=0.69, delta=0.0, nsends=0),
            FailureSpec(rank=4, kind="recovery", frac=0.5, delta=5e-05,
                        nsends=0),
        ), bug=""),
}


@pytest.mark.xfail(strict=True, reason=(
    "the reduce send-witness defect, in the shrunk schedule of a campaign "
    "trial that exposes it"))
@pytest.mark.parametrize("name", sorted(SHRUNK_REDUCE))
def test_reduce_send_witness_shrunk(name):
    """``reduce/8r it=30 cl=4 jit=0.15 [after_sends:1#81,
    restored:1+2.00e-04]``, ``reduce/4r it=16 cl=2 jit=0.15 [at:1@0.570,
    recovery:1+3.00e-05]`` and ``reduce/8r it=23 cl=1 jit=0.3
    [after_sends:5#17, at:1@0.690, recovery:4+5.00e-05]``."""
    result = run_trial_schedule(SHRUNK_REDUCE[name])
    assert result.passed, result.failed_oracles()
