"""The sweep's FIFO pool: lease order, hard-crash recovery."""

import os
import time
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.obs import MetricsRegistry
from repro.sweep import Scheduler


# Worker functions must live at module level so they pickle into workers.

def double(payload):
    return payload * 2


def slow_zero(payload):
    if payload == 0:
        time.sleep(0.5)
    return payload


def crash_on_boom(payload):
    if payload == "boom":
        time.sleep(0.3)  # let innocent tasks drain first
        os._exit(1)  # hard death: no exception crosses the pipe
    return payload


def crash_once_or_nap(payload):
    """``(name, seconds, flag)``: the first run of a task with a ``flag``
    creates the flag file and kills its worker, so only its retry
    succeeds; otherwise sleep, then return ``name``."""
    name, seconds, flag = payload
    if flag is not None and not os.path.exists(flag):
        with open(flag, "w"):
            pass
        os._exit(1)
    time.sleep(seconds)
    return name


def _payloads(values):
    return list(enumerate(values))


@pytest.fixture
def leased(monkeypatch):
    """The payloads the pool hands its executor, in lease order."""
    seen = []
    submit = ProcessPoolExecutor.submit

    def spy(self, fn, payload):
        seen.append(payload)
        return submit(self, fn, payload)

    monkeypatch.setattr(ProcessPoolExecutor, "submit", spy)
    return seen


def test_all_tasks_complete_in_results_map():
    with Scheduler(2) as sched:
        outcome = sched.run(double, _payloads(range(7)))
    assert outcome.results == {i: 2 * i for i in range(7)}
    assert outcome.lost == []
    assert outcome.leases == 7


def test_empty_run():
    with Scheduler(3) as sched:
        outcome = sched.run(double, [])
    assert outcome.results == {} and outcome.leases == 0


def test_on_result_fires_per_completion():
    seen = []
    with Scheduler(2) as sched:
        sched.run(double, _payloads(range(5)), on_result=seen.append)
    assert sorted(seen) == [0, 2, 4, 6, 8]


def test_tasks_are_leased_in_task_order(leased):
    with Scheduler(2) as sched:
        outcome = sched.run(double, _payloads(range(4)))
    assert leased == [0, 1, 2, 3] and outcome.leases == 4


def test_a_slow_task_holds_one_slot_while_the_others_drain():
    """Task 0 sleeps; the other slot runs every other task meanwhile."""
    obs = MetricsRegistry()
    seen = []
    with Scheduler(2) as sched:
        outcome = sched.run(slow_zero, _payloads(range(6)),
                            on_result=seen.append, obs=obs)
    assert outcome.results == {i: i for i in range(6)}
    assert seen[-1] == 0
    assert obs.counter("service.leases").get() == outcome.leases == 6


def test_casualties_run_again_ahead_of_untouched_tasks(tmp_path, leased):
    """Task 0 breaks the pool while task 1 is in flight: both go back to
    the head of the queue, in lease order, before tasks 2 and 3."""
    flag = str(tmp_path / "crashed-once")
    payloads = _payloads([("a", 0, flag), ("b", 0.5, None),
                          ("c", 0, None), ("d", 0, None)])
    with Scheduler(2) as sched:
        outcome = sched.run(crash_once_or_nap, payloads)
    assert [name for name, _, _ in leased] == ["a", "b", "a", "b", "c", "d"]
    assert outcome.results == {0: "a", 1: "b", 2: "c", 3: "d"}
    assert outcome.lost == [] and outcome.rebuilds == 1


def test_hard_crash_loses_only_the_culprit():
    """A worker dying without returning breaks the pool; the scheduler
    rebuilds it, retries, and after the deterministic second death
    reports exactly the culprit as lost — innocents all complete."""
    values = ["a", "b", "boom", "c", "d"]
    obs = MetricsRegistry()
    with Scheduler(2) as sched:
        outcome = sched.run(crash_on_boom, _payloads(values), obs=obs)
    assert outcome.lost == [2]
    assert outcome.rebuilds >= 1
    assert {i: v for i, v in enumerate(values) if v != "boom"} \
        == outcome.results
    assert obs.counter("service.tasks_lost").get() == 1


def test_crash_once_task_recovers_on_retry(tmp_path):
    flag = str(tmp_path / "crashed-once")
    obs = MetricsRegistry()
    with Scheduler(1) as sched:
        outcome = sched.run(crash_once_or_nap, [(0, ("recovered", 0, flag))],
                            obs=obs)
    assert outcome.results == {0: "recovered"}
    assert outcome.lost == []
    assert outcome.rebuilds == 1
    assert obs.counter("service.leases").get() == outcome.leases == 2
    assert obs.counter("service.tasks_lost").get() == 0


def test_scheduler_reusable_across_runs():
    """The campaign service keeps one scheduler alive across jobs; the
    pool must survive consecutive runs (and a crash in between)."""
    with Scheduler(2) as sched:
        first = sched.run(double, _payloads(range(3)))
        crash = sched.run(crash_on_boom, _payloads(["x", "boom"]))
        second = sched.run(double, _payloads(range(4)))
    assert first.results == {0: 0, 1: 2, 2: 4}
    assert crash.lost == [1] and crash.results == {0: "x"}
    assert second.results == {i: 2 * i for i in range(4)}
