"""Minimized chaos reproducers, landed as permanent regression tests.

Each schedule below is the shrunk form of a corner the chaos campaign
drives: a second failure arriving during the post-failure network drain,
a re-kill of a rank that just finished restoring, and two failures queued
back-to-back behind an in-flight recovery round.  They pin today's
correct behavior — all five oracles must keep passing — and double as
documentation of the exact virtual-time geometry of each corner.
"""

from repro.chaos.schedule import FailureSpec, TrialSchedule
from repro.chaos.trial import run_trial_schedule
from repro.core.recovery import RecoveryProcess


def _assert_all_oracles(result):
    assert result.passed, {
        name: result.detail(name) for name in result.failed_oracles()
    }


def test_failure_during_network_drain(monkeypatch):
    """A second rank dies ~1 us after the first — inside the drain the
    recovery round runs before restoring (in-flight traffic purge)."""
    starts = []
    begin_round = RecoveryProcess.begin_round
    monkeypatch.setattr(
        RecoveryProcess, "begin_round", lambda self, n, failed, now: (
            starts.append(now), begin_round(self, n, failed, now)))
    sched = TrialSchedule(
        seed=1, kernel="stencil", nprocs=4, niters=20,
        failures=(
            FailureSpec(1, "at", frac=0.5),
            FailureSpec(2, "drain", delta=1.0e-6),
        ),
    )
    result = run_trial_schedule(sched)
    _assert_all_oracles(result)
    # the drain-window failure must not merge into the first round
    assert result.stats["recovery_rounds"] == 2
    assert result.stats["failures_fired"] == 2
    # ... and it lands while the network still drains: before round 1
    # starts (kills at 29.35 and 30.35 us, round 1 at 33.44 us)
    (_, first), (_, second) = result.stats["fired"]
    assert first < second < starts[0]


def test_failure_of_just_restored_rank():
    """The rank that just came back from its checkpoint dies again right
    after resuming — its second restore must start from the re-uploaded
    SPE state, not the stale pre-round table."""
    sched = TrialSchedule(
        seed=2, kernel="stencil", nprocs=4, niters=20,
        failures=(
            FailureSpec(1, "at", frac=0.5),
            FailureSpec(1, "restored", delta=1.2e-4),
        ),
    )
    result = run_trial_schedule(sched)
    _assert_all_oracles(result)
    assert result.stats["recovery_rounds"] == 2
    # both kills hit rank 1
    assert [r for r, _t in result.stats["fired"]] == [1, 1]


def test_two_back_to_back_queued_rounds():
    """Two more failures land while round 1 is still in flight; both are
    queued and must drain as separate rounds after settle — not merge,
    not strand (the all-dead-batch loop the settle runs,
    ``FTController._settled``)."""
    sched = TrialSchedule(
        seed=3, kernel="stencil2d", nprocs=4, niters=16,
        failures=(
            FailureSpec(0, "at", frac=0.45),
            FailureSpec(2, "recovery", delta=2.0e-5),
            FailureSpec(3, "recovery", delta=1.5e-5),
        ),
    )
    result = run_trial_schedule(sched)
    _assert_all_oracles(result)
    assert result.stats["recovery_rounds"] == 3
    assert result.stats["failures_fired"] == 3
