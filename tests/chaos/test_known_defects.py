"""Known protocol defects the chaos campaigns found, tracked in tier-1.

Each test replays the exact campaign trial that exposes the defect and is
``xfail(strict=True)``: the suite goes red the day the defect is fixed (or
a change moves it), so the marker and the CHANGES.md note get removed
together instead of rotting.
"""

import pytest

from repro.chaos import replay_trial


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
