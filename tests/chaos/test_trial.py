"""Trial execution and the five oracles."""

import pytest

from repro import campaigns
from repro.chaos.oracles import ORACLES
from repro.chaos.schedule import FailureSpec, TrialSchedule, generate_schedule
from repro.chaos.trial import SYNTHETIC_BUGS, run_trial, run_trial_schedule


def test_clean_trial_passes_all_four_oracles():
    sched = TrialSchedule(
        seed=11, kernel="stencil", nprocs=4, niters=18,
        failures=(FailureSpec(1, "at", frac=0.5),),
    )
    result = run_trial_schedule(sched)
    assert result.passed, result.failed_oracles()
    assert set(result.oracles) == set(ORACLES)
    assert result.stats["failures_fired"] == 1
    assert result.stats["recovery_rounds"] == 1
    assert result.flight_jsonl is None  # only attached on failure


def test_no_failure_schedule_is_a_smoke_run():
    result = run_trial_schedule(
        TrialSchedule(seed=1, kernel="reduce", nprocs=4, niters=10))
    assert result.passed
    assert result.stats["recovery_rounds"] == 0


@pytest.mark.parametrize("bug", sorted(SYNTHETIC_BUGS))
def test_synthetic_bugs_break_an_oracle(bug):
    """Each planted defect must be caught — the harness's self-test."""
    import dataclasses

    caught = False
    for seed in range(6):
        sched = dataclasses.replace(generate_schedule(seed), bug=bug)
        if not run_trial_schedule(sched).passed:
            caught = True
            break
    assert caught, f"synthetic bug {bug!r} survived 6 seeds undetected"


def test_after_sends_resolved_modulo_actual_send_count():
    # 10**6 sends never happen; the trial wraps it into range and fires
    sched = TrialSchedule(
        seed=5, kernel="stencil", nprocs=4, niters=16,
        failures=(FailureSpec(2, "after_sends", nsends=10**6),),
    )
    result = run_trial_schedule(sched)
    assert result.passed, result.failed_oracles()
    assert result.stats["failures_fired"] == 1
    placement = result.stats["placements"][0]
    assert placement["kind"] == "after_sends"
    assert placement["nsends"] >= 1


def test_timing_result_kernel_passes_validity():
    # ping-pong reports virtual-time latencies, which legitimately change
    # once recovery stretches the clock; the oracle must still hold its
    # send sequences to Definition 1 without tripping on the timings
    sched = TrialSchedule(
        seed=9, kernel="pingpong", nprocs=2, niters=24,
        failures=(FailureSpec(0, "at", frac=0.4),),
    )
    result = run_trial_schedule(sched)
    assert result.passed, {n: result.detail(n)
                           for n in result.failed_oracles()}


def test_run_trial_entry_point_returns_plain_json():
    # the planner fills every field a trial reads; run_trial has no
    # defaults of its own
    _, (task,), _, _ = campaigns.plan({"kind": "chaos", "trials": 1})
    out = run_trial({**task.params, "seed": 17})
    assert isinstance(out, dict)
    assert set(out["oracles"]) >= {"settles", "validity"}
    assert out["schedule"] == generate_schedule(17).to_json()


def test_failing_trial_attaches_flight_dump_with_obs():
    import dataclasses

    from repro.obs import MetricsRegistry

    sched = None
    for seed in range(6):
        cand = dataclasses.replace(generate_schedule(seed), bug="log_drop")
        if not run_trial_schedule(cand, check_determinism=False).passed:
            sched = cand
            break
    assert sched is not None
    result = run_trial_schedule(sched, obs=MetricsRegistry(),
                                check_determinism=False)
    assert not result.passed
    assert result.flight_jsonl  # flight-recorder evidence rides along
