"""Delta-debugging shrinker: minimization power and reproducer emission."""

import dataclasses

import pytest

from repro.chaos.schedule import generate_schedule
from repro.chaos.shrink import reproducer_source, shrink_schedule
from repro.chaos.trial import run_trial_schedule


def _seeded_bug_schedule(bug="ack_drop"):
    """A generated schedule that fails under a reintroduced ack-drop bug."""
    for seed in range(8):
        sched = dataclasses.replace(generate_schedule(seed), bug=bug)
        result = run_trial_schedule(sched)
        if not result.passed:
            return sched, result
    raise AssertionError(f"no failing seed found for {bug!r}")


def test_shrinker_reduces_synthetic_bug_to_two_events_or_fewer():
    """The acceptance bar: a seeded synthetic-bug trial shrinks to a
    minimal reproducer of at most 2 failure events."""
    sched, result = _seeded_bug_schedule("ack_drop")
    shrunk = shrink_schedule(sched, result=result)
    assert len(shrunk.minimized.failures) <= 2
    assert len(shrunk.minimized.failures) <= len(sched.failures)
    assert shrunk.failing_oracles  # still failing after minimization
    assert shrunk.trials > 0
    # the minimized schedule independently reproduces the failure
    final = run_trial_schedule(shrunk.minimized)
    assert not final.passed


def test_shrinker_neutralizes_irrelevant_axes():
    sched, result = _seeded_bug_schedule("ack_drop")
    shrunk = shrink_schedule(sched, result=result)
    m = shrunk.minimized
    # the ack-drop defect needs none of these axes; the shrinker must
    # have knocked them back to neutral
    assert m.clusters == 1
    assert m.gc_frac == 0.0
    # history records each accepted reduction
    assert shrunk.history


def test_reproducer_is_runnable_pytest_and_fails_while_bug_exists():
    sched, result = _seeded_bug_schedule("ack_drop")
    shrunk = shrink_schedule(sched, result=result)
    source = shrunk.reproducer
    namespace: dict = {}
    exec(compile(source, "<reproducer>", "exec"), namespace)  # noqa: S102
    assert "test_chaos_reproducer" in namespace
    with pytest.raises(AssertionError, match="oracles failed"):
        namespace["test_chaos_reproducer"]()


def test_reproducer_source_pins_schedule_exactly():
    from repro.chaos.schedule import schedule_from_json

    sched = generate_schedule(4)
    source = reproducer_source(sched, ("validity",))
    namespace: dict = {}
    exec(compile(source, "<reproducer>", "exec"), namespace)  # noqa: S102
    assert schedule_from_json(namespace["SCHEDULE"]) == sched


def test_shrink_refuses_passing_schedule():
    sched = generate_schedule(11)
    result = run_trial_schedule(sched)
    assert result.passed
    with pytest.raises(ValueError, match="nothing to shrink"):
        shrink_schedule(sched, result=result)
