"""Campaign orchestration: determinism across worker counts, reporting,
obs counters, replay by (campaign seed, index)."""

import json

import pytest

from repro.chaos.campaign import (
    replay_trial,
    run_campaign,
    schedule_for_trial,
)
from repro.errors import ConfigError
from repro.obs import MetricsRegistry


def _verdicts(report):
    return (report.passed, report.failed, report.errors,
            tuple(tuple(e["oracles"]) for e in report.failure_index))


def test_campaign_verdicts_identical_inline_and_pooled():
    inline = run_campaign(8, seed=42, workers=1, shrink=0)
    pooled = run_campaign(8, seed=42, workers=3, shrink=0)
    assert _verdicts(inline) == _verdicts(pooled)


def test_clean_campaign_passes_and_counts_oracles():
    obs = MetricsRegistry()
    report = run_campaign(10, seed=0, workers=1, shrink=0, obs=obs)
    assert report.ok, report.summary()
    assert report.passed == 10
    counter = obs.counter("chaos.oracle", ("name", "passed"))
    for oracle in ("settles", "validity", "sanitize", "determinism"):
        assert counter.get((oracle, True)) == 10
        assert counter.get((oracle, False)) == 0
    assert obs.counter("chaos.trials", ("outcome",)).get(("pass",)) == 10


@pytest.mark.parametrize("kernel", ["mg", "ft", "bt"])
def test_table1_kernels_outside_the_default_pool_face_chaos(kernel):
    """Smoke of the Table I kernels the default pool does not draw;
    docs/robustness.md records 200 trials of each."""
    report = run_campaign(2, seed=0, workers=1, kernels=(kernel,), shrink=0)
    assert report.passed == 2, report.summary()
    assert {schedule_for_trial(0, i, kernels=(kernel,)).kernel
            for i in range(2)} == {kernel}


def test_buggy_campaign_fails_shrinks_and_reports(tmp_path):
    report = run_campaign(6, seed=0, workers=1, bug="log_drop", shrink=1)
    assert not report.ok
    assert report.failed >= 1
    assert report.oracle_failures  # per-oracle tallies populated
    assert report.failure_index[0]["oracles"]
    assert len(report.shrunk) == 1
    shrunk = report.shrunk[0]
    assert "minimized" in shrunk
    assert "def test_chaos_reproducer" in shrunk["reproducer"]
    # report serializes cleanly for CI artifacts
    out = tmp_path / "campaign.json"
    report.save(str(out))
    loaded = json.loads(out.read_text())
    assert loaded["failed"] == report.failed
    assert loaded["shrunk"][0]["index"] == shrunk["index"]


def test_unknown_bug_refused_before_any_trial():
    """Every trial of such a campaign used to end in a harness error."""
    with pytest.raises(ConfigError, match="unknown synthetic bug 'bogus'"):
        run_campaign(2, bug="bogus")


def test_replay_trial_matches_campaign_schedule():
    # the schedule a campaign ran at index i is reconstructible from the
    # two integers quoted in its report
    sched = schedule_for_trial(0, 3)
    verdict = replay_trial(0, 3)
    assert verdict["schedule"] == sched.to_json()
    assert verdict["passed"]


def test_campaign_without_a_registry_equals_one_with():
    """``obs=None`` means a fresh registry, as behind every other door —
    not an uninstrumented or unscored campaign."""
    registry = MetricsRegistry()
    given = run_campaign(12, seed=3, shrink=0, obs=registry)
    fresh = run_campaign(12, seed=3, shrink=0, obs=None)
    assert fresh.to_json() == given.to_json()
    assert registry.counter("chaos.trials", ("outcome",)).total == 12
