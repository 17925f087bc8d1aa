"""Schedule generation: determinism, JSON round-trips, constraint axes."""

import pytest

from repro.chaos import schedule_for_trial
from repro.chaos.schedule import (
    KERNELS,
    PLACEMENT_KINDS,
    FailureSpec,
    TrialSchedule,
    generate_schedule,
    schedule_from_json,
    with_failures,
)
from repro.errors import ConfigError


def test_same_seed_same_schedule():
    for seed in (0, 7, 123456789, 2**62 + 5):
        assert generate_schedule(seed) == generate_schedule(seed)


def test_different_seeds_differ_somewhere():
    schedules = {repr(generate_schedule(s).to_json()) for s in range(40)}
    assert len(schedules) > 30  # near-total diversity at small seed counts


def test_json_roundtrip_exact():
    for seed in range(25):
        sched = generate_schedule(seed)
        assert schedule_from_json(sched.to_json()) == sched


def test_generated_schedules_satisfy_invariants():
    for seed in range(60):
        sched = generate_schedule(seed)
        sched.validate()  # must not raise
        assert sched.nprocs in KERNELS[sched.kernel].nprocs_choices
        assert sched.nprocs % sched.clusters == 0
        assert 1 <= len(sched.failures) <= 4
        assert all(f.kind in PLACEMENT_KINDS for f in sched.failures)
        # first event anchors the trial in absolute/logical terms
        assert sched.failures[0].kind in ("at", "after_sends")
        if not sched.log_cross_epoch:
            assert sched.gc_frac == 0.0  # GC unsound under domino


def test_kernel_pool_restriction():
    for seed in range(10):
        assert generate_schedule(seed, kernels=("cg",)).kernel == "cg"
    with pytest.raises(ConfigError):
        generate_schedule(0, kernels=("nope",))


def test_validate_rejects_bad_schedules():
    good = generate_schedule(0)
    with pytest.raises(ConfigError):
        with_failures(good, (FailureSpec(rank=99),)).validate()
    with pytest.raises(ConfigError):
        with_failures(good, (FailureSpec(0, kind="sideways"),)).validate()
    with pytest.raises(ConfigError):
        TrialSchedule(seed=0, nprocs=6, clusters=4).validate()
    with pytest.raises(ConfigError):
        TrialSchedule(seed=0, log_cross_epoch=False,
                      gc_frac=0.3).validate()


def test_allow_no_log_off_removes_domino_axis():
    assert all(generate_schedule(s, allow_no_log=False).log_cross_epoch
               for s in range(80))


def test_bug_field_threaded_through():
    sched = generate_schedule(3, bug="ack_drop")
    assert sched.bug == "ack_drop"
    assert schedule_from_json(sched.to_json()).bug == "ack_drop"


@pytest.mark.parametrize("seed, trial, fields, described", [
    pytest.param(38, 4, {}, "reduce/8r it=30 cl=4 jit=0.15 log=1 "
                 "[after_sends:1#81, restored:1+1.64e-04]", id="38/4"),
    pytest.param(45, 14, {}, "reduce/4r it=16 cl=2 jit=0.15 log=1 [at:1@0.566, "
                 "recovery:1+3.16e-05, drain:2+1.08e-06]", id="45/14"),
    pytest.param(116, 25, {}, "reduce/8r it=27 cl=1 jit=0.3 log=1 "
                 "[after_sends:5#17, at:1@0.688, recovery:4+5.11e-05, "
                 "restored:1+2.71e-04]", id="116/25"),
    # perfbench chaos bank seed 184, as its reduce campaign draws it
    pytest.param(184, 0, {"kernels": ("reduce",)},
                 "reduce/6r it=38 cl=3 jit=0.3 log=1 [at:0@0.273]",
                 id="bank-184/0-reduce"),
])
def test_committed_trials_keep_their_draws(seed, trial, fields, described):
    """Campaign trials quoted elsewhere (known defects, the benchmark's
    seed bank) keep their schedules: the retired ack-batch draw still
    takes its slot in the stream, so every later draw stays put."""
    assert schedule_for_trial(seed, trial, **fields).describe() == described


@pytest.mark.parametrize("key", [
    "nprocz",     # a typo
    "ack_batch",  # a dump written while acks could be batched: replayed
                  # without its axis it would be a different trial
])
def test_from_json_refuses_unknown_keys(key):
    data = generate_schedule(0).to_json()
    with pytest.raises(ConfigError, match=key):
        schedule_from_json({**data, key: 4})
    failure = {**data["failures"][0], key: 1}
    with pytest.raises(ConfigError, match=key):
        schedule_from_json({**data, "failures": [failure]})
