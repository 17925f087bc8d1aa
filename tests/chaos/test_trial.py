"""Trial execution and the five oracles."""

import pytest

from repro import campaigns
from repro.apps import CHAOS_POOL
from repro.chaos import schedule_for_trial
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


def _observed(world):
    """What the oracles and the failure placement read of a reference."""
    from repro.simmpi.trace import payload_digest, send_witness_chains

    return (world.engine.now, world.engine.events_dispatched,
            [p.app_messages_sent for p in world.procs],
            world.tracer.logical_send_sequences(),
            send_witness_chains(world.tracer),
            [payload_digest(p.result()) for p in world.programs])


def _full_capture_run(schedule):
    """``schedule``'s failure-free run in its protocol world, every image
    and payload kept."""
    from contextlib import closing

    from repro.chaos.trial import _config, _sanitize_env
    from repro.core import build_ft_world

    with _sanitize_env(True):
        world, controller = build_ft_world(
            schedule.nprocs, schedule.factory(), _config(schedule),
            record_sequences=True)
        with closing(controller):
            world.launch()
            world.run()
    return world


def _assert_reference_is_the_full_run(schedule):
    from repro.analysis.rollback import _RecordingHook
    from repro.chaos.trial import _run_reference

    ref = _run_reference(schedule, sanitize=True)
    assert all(isinstance(p.hook, _RecordingHook) for p in ref.procs)
    assert _observed(ref) == _observed(_full_capture_run(schedule))


@pytest.mark.parametrize("kernel", sorted(CHAOS_POOL))
def test_lightweight_reference_is_the_same_run(kernel):
    """The reference a trial builds is the protocol-free recording world
    (no controller, no image, no payload kept): send-determinism makes its
    sends the protocol's, dates included, so what the oracles and the
    failure placement read of it equals a full-capture protocol run's.
    Campaign seeds 11 and 62 are two of perfbench's chaos seed bank."""
    for seed in (11, 62):
        _assert_reference_is_the_full_run(
            schedule_for_trial(seed, 0, kernels=(kernel,)))


def test_the_stencil_scenario_reference_is_the_same_run(monkeypatch):
    """The Stencil2D scenario's reference (behind ``demo`` / ``sweep``) is
    the recording world too, and equals its full-capture run."""
    from repro.chaos import trial as chaos_trial

    seen = []
    real = chaos_trial._run_reference

    def spy(schedule, *args, **kw):
        seen.append(schedule)
        return real(schedule, *args, **kw)

    monkeypatch.setattr(chaos_trial, "_run_reference", spy)
    campaigns.stencil_scenario(6, 2, niters=10)
    monkeypatch.undo()
    assert len(seen) == 1
    _assert_reference_is_the_full_run(seen[0])


@pytest.mark.parametrize("armed", [False, True])
def test_a_trial_holds_one_chaos_world_at_a_time(monkeypatch, armed):
    """By the time the determinism re-run builds its world, the first chaos
    world is gone — freed by reference count alone, with the cyclic
    collector off — so a trial holds at most the reference plus one chaos
    world.  ``armed`` gives the trial the metrics registry a campaign
    hands it."""
    import gc
    import weakref

    from repro.chaos import trial
    from repro.obs import MetricsRegistry

    build = trial.build_ft_world
    worlds, first_alive = [], []

    def spy(*args, **kwargs):  # the chaos worlds (the reference is a World)
        if len(worlds) == 1:
            first_alive.append(worlds[0]() is not None)
        world, controller = build(*args, **kwargs)
        worlds.append(weakref.ref(world))
        return world, controller

    monkeypatch.setattr(trial, "build_ft_world", spy)
    sched = TrialSchedule(
        seed=11, kernel="stencil", nprocs=4, niters=18,
        failures=(FailureSpec(1, "at", frac=0.5),),
    )
    collecting = gc.isenabled()
    gc.disable()
    try:
        result = run_trial_schedule(
            sched, obs=MetricsRegistry(flight=False) if armed else None)
    finally:
        if collecting:
            gc.enable()
    assert result.passed, result.failed_oracles()
    assert len(worlds) == 2 and first_alive == [False]


def test_failure_dump_of_a_re_execution_is_the_first_executions():
    """A failing trial without a recorder of its own dumps a re-execution
    of its chaos run: the stream a recorder armed on the first execution
    holds, byte for byte, and the trial's metrics counted once."""
    from repro.chaos import schedule_for_trial
    from repro.obs import MetricsRegistry, dump_metrics

    dumps = 0
    for index in range(8):
        schedule = schedule_for_trial(0, index, bug="ack_drop")
        armed, unarmed = MetricsRegistry(), MetricsRegistry(flight=False)
        first = run_trial_schedule(schedule, obs=armed)
        again = run_trial_schedule(schedule, obs=unarmed)
        assert first.to_json() == again.to_json()
        assert unarmed.flight is None
        assert dump_metrics(unarmed, "jsonl") == dump_metrics(armed, "jsonl")
        dumps += first.flight_jsonl is not None
    assert dumps >= 4


def test_gc_ticker_skips_only_collections_nothing_could_change():
    """After a tick that found no other event queued, the next tick's
    collection would see the state the last one left: it is skipped, and
    collection resumes once another event has run."""
    from repro.chaos.trial import _GcTicker
    from repro.simmpi.engine import Engine

    class Stuck:  # a world whose ranks never finish
        engine = Engine()
        all_done = False

    class Controller:
        def collect_garbage(self, defer):
            calls.append(Stuck.engine.now)

    calls = []
    Stuck.engine.schedule_at(1.0, _GcTicker(Stuck, Controller(), 1.0).tick)
    Stuck.engine.schedule_at(4.5, lambda: None)
    Stuck.engine.run(max_events=10)  # ticks 1-9 and the event at 4.5
    assert calls == [1.0, 2.0, 3.0, 4.0, 5.0]


def test_no_application_send_while_not_running(send_rule):
    """Fig. 3 line 14 over a chaos sample: a rank the protocol holds
    (Blocked or RolledBack) is paused, so it emits nothing until Running."""
    for index in range(12):
        result = run_trial_schedule(schedule_for_trial(0, index),
                                    check_determinism=False)
        assert result.passed, result.failed_oracles()
    assert send_rule.violations == []
    assert send_rule.while_held > 0
