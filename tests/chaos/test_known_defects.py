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
