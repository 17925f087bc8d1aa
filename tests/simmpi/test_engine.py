"""Unit tests for the discrete-event engine."""

import pytest

from repro.errors import SimulationError
from repro.lint.sanitize import AUDIT_INTERVAL, ENV_VAR
from repro.obs import MetricsRegistry
from repro.simmpi.engine import Engine


def test_initial_clock_zero():
    assert Engine().now == 0.0


def test_events_run_in_time_order():
    eng = Engine()
    order = []
    eng.schedule(3e-6, lambda: order.append("c"))
    eng.schedule(1e-6, lambda: order.append("a"))
    eng.schedule(2e-6, lambda: order.append("b"))
    eng.run()
    assert order == ["a", "b", "c"]


def test_same_time_events_run_fifo():
    eng = Engine()
    order = []
    for i in range(10):
        eng.schedule(1e-6, lambda i=i: order.append(i))
    eng.run()
    assert order == list(range(10))


def test_clock_advances_to_event_time():
    eng = Engine()
    seen = []
    eng.schedule(5e-6, lambda: seen.append(eng.now))
    eng.run()
    assert seen == [5e-6]
    assert eng.now == 5e-6


def test_negative_delay_rejected():
    with pytest.raises(SimulationError):
        Engine().schedule(-1.0, lambda: None)


def test_cancelled_event_skipped():
    eng = Engine()
    fired = []
    handle = eng.schedule(1e-6, lambda: fired.append("x"))
    handle.cancel()
    eng.run()
    assert fired == []
    assert handle.cancelled


def test_cancel_twice_is_noop():
    eng = Engine()
    handle = eng.schedule(1e-6, lambda: None)
    handle.cancel()
    handle.cancel()
    eng.run()


def test_schedule_at_absolute_time():
    eng = Engine()
    seen = []
    eng.schedule_at(7e-6, lambda: seen.append(eng.now))
    eng.run()
    assert seen == [7e-6]


def test_schedule_at_past_runs_now():
    eng = Engine()
    eng.schedule(5e-6, lambda: eng.schedule_at(1e-6, lambda: None))
    eng.run()  # must not raise "time went backwards"
    assert eng.now == 5e-6


def test_events_can_schedule_events():
    eng = Engine()
    order = []

    def first():
        order.append("first")
        eng.schedule(1e-6, lambda: order.append("second"))

    eng.schedule(1e-6, first)
    eng.run()
    assert order == ["first", "second"]
    assert eng.now == pytest.approx(2e-6)


def test_run_until_stops_clock():
    eng = Engine()
    fired = []
    eng.schedule(1e-6, lambda: fired.append(1))
    eng.schedule(10e-6, lambda: fired.append(2))
    eng.run(until=5e-6)
    assert fired == [1]
    assert eng.now == 5e-6
    eng.run()
    assert fired == [1, 2]


def test_run_max_events():
    eng = Engine()
    fired = []
    for i in range(5):
        eng.schedule(1e-6 * (i + 1), lambda i=i: fired.append(i))
    eng.run(max_events=2)
    assert fired == [0, 1]


def test_max_events_is_exact_inside_an_instant():
    """A budget that runs out mid-instant leaves the rest of the instant
    pending, and the next run() resumes it where it stopped."""
    eng = Engine()
    fired = []
    for i in range(5):
        eng.schedule(1e-6, lambda i=i: fired.append(i))
    eng.run(max_events=2)
    assert fired == [0, 1]
    assert eng.pending == 3 and eng.now == 1e-6
    # scheduled between the two runs at the half-dispatched instant: last
    eng.call_soon(lambda: fired.append("soon"))
    eng.run()
    assert fired == [0, 1, 2, 3, 4, "soon"]
    assert eng.pending == 0 and eng.events_dispatched == 6


def test_pending_counts_non_cancelled():
    eng = Engine()
    h1 = eng.schedule(1e-6, lambda: None)
    eng.schedule(2e-6, lambda: None)
    assert eng.pending == 2
    h1.cancel()
    assert eng.pending == 1


def test_events_dispatched_counter():
    eng = Engine()
    for i in range(4):
        eng.schedule(1e-6, lambda: None)
    eng.run()
    assert eng.events_dispatched == 4


def test_reentrant_run_rejected():
    eng = Engine()

    def reenter():
        with pytest.raises(SimulationError):
            eng.run()

    eng.schedule(1e-6, reenter)
    eng.run()


def test_call_soon_runs_at_current_time():
    eng = Engine()
    times = []
    eng.schedule(3e-6, lambda: eng.call_soon(lambda: times.append(eng.now)))
    eng.run()
    assert times == [3e-6]


def test_determinism_across_runs():
    def build():
        eng = Engine()
        order = []
        for i in range(50):
            eng.schedule((i * 7919 % 13) * 1e-7, lambda i=i: order.append(i))
        eng.run()
        return order

    assert build() == build()


# ----------------------------------------------------------------------
# Regressions: run(until=...) clock semantics when the queue drains early
# ----------------------------------------------------------------------
def test_run_until_clock_lands_on_horizon_after_drain():
    # the queue draining below the horizon used to leave the clock at the
    # last event's time instead of advancing it to `until`
    eng = Engine()
    eng.schedule(1e-6, lambda: None)
    eng.run(until=5e-6)
    assert eng.now == 5e-6


def test_run_until_on_empty_queue_advances_clock():
    eng = Engine()
    eng.run(until=3e-6)
    assert eng.now == 3e-6
    eng.run(until=2e-6)  # an earlier horizon never moves the clock back
    assert eng.now == 3e-6


def test_run_until_in_the_past_keeps_the_clock_and_the_instant_in_progress():
    eng = Engine()
    fired = []
    for i in range(3):
        eng.schedule(2e-6, lambda i=i: fired.append(i))
    eng.run(max_events=1)  # the instant at 2e-6 is half dispatched
    eng.run(until=1e-6)    # an earlier horizon: nothing runs, no step back
    assert eng.now == 2e-6 and fired == [0]
    eng.schedule_at(1.5e-6, lambda: fired.append("clamped"))  # joins it
    eng.run()
    assert fired == [0, 1, 2, "clamped"]
    assert eng.now == 2e-6


def test_periodic_sampling_across_drained_queue():
    # back-to-back run(until=...) calls give evenly spaced sampling points
    # even when the workload finishes well before the last horizon
    eng = Engine()
    eng.schedule(1e-6, lambda: None)
    for horizon in (1e-5, 2e-5, 3e-5):
        eng.run(until=horizon)
        assert eng.now == horizon


# ----------------------------------------------------------------------
# Regressions: the live `pending` counter
# ----------------------------------------------------------------------
def test_cancel_after_dispatch_keeps_pending_consistent():
    eng = Engine()
    handle = eng.schedule(1e-6, lambda: None)
    eng.schedule(2e-6, lambda: None)
    eng.run(max_events=1)
    assert eng.pending == 1
    handle.cancel()  # already ran: must not decrement a second time
    assert eng.pending == 1
    eng.run()
    assert eng.pending == 0


def test_pending_counts_schedule_at_in_past():
    eng = Engine()
    fired = []

    def inner():
        eng.schedule_at(1e-6, lambda: fired.append("late"))
        assert eng.pending == 1  # the clamped-to-now event is pending

    eng.schedule(5e-6, inner)
    eng.run()
    assert fired == ["late"]
    assert eng.pending == 0


def test_pending_through_interleaved_cancel_and_dispatch():
    eng = Engine()
    handles = [eng.schedule(i * 1e-6, lambda: None) for i in range(1, 7)]
    assert eng.pending == 6
    handles[0].cancel()
    handles[3].cancel()
    assert eng.pending == 4
    eng.run(max_events=2)
    assert eng.pending == 2
    handles[3].cancel()  # cancelling twice stays a no-op
    assert eng.pending == 2
    eng.run()
    assert eng.pending == 0


# ----------------------------------------------------------------------
# Cancellation: holes, dead instants and the bucket being walked
# ----------------------------------------------------------------------

def test_queue_garbage_tracks_cancellations():
    eng = Engine()
    handles = [eng.schedule((i + 1) * 1e-6, lambda: None) for i in range(10)]
    for h in handles[:4]:
        h.cancel()
    assert eng.queue_garbage == 4
    assert eng.pending == 6
    eng.run()
    assert eng.queue_garbage == 0
    assert eng.pending == 0


def test_dead_instant_revives_when_posted_to_later():
    """A callback cancels every far event, leaving their instants dead in
    the middle of the heap, then posts to one of them: the instant comes
    back to life in its place, and what the running loop was given after
    the cancels is still seen."""
    eng = Engine()
    order = []
    doomed = []

    def purge_and_continue():
        order.append("purge")
        for h in doomed:
            h.cancel()
        assert eng.queue_garbage == 300
        eng.schedule_at(5.0 + 7 * 1e-6, lambda: order.append("revived"))
        assert eng.queue_garbage == 299
        eng.schedule(1e-6, lambda: order.append("after"))

    eng.schedule(1e-6, purge_and_continue)
    doomed.extend(eng.schedule(5.0 + i * 1e-6, lambda: None) for i in range(300))
    eng.run()
    assert order == ["purge", "after", "revived"]
    assert eng.now == 5.0 + 7 * 1e-6  # dead instants never move the clock
    assert eng.pending == 0
    assert eng.queue_garbage == 0


def test_cancelled_events_never_dispatch():
    eng = Engine()
    fired = []
    handles = [
        eng.schedule((i + 1) * 1e-6, (lambda i=i: fired.append(i)))
        for i in range(150)
    ]
    for h in handles[::2] + handles[-1:]:
        h.cancel()
    eng.run()
    assert fired == list(range(1, 149, 2))
    assert eng.now == 148 * 1e-6  # the dead last instant never ran
    handles[0].cancel()  # already cancelled
    handles[1].cancel()  # already ran
    assert eng.pending == 0


def test_cancel_from_a_callback_skips_the_hole_in_the_walked_bucket(
        monkeypatch):
    """A callback cancels a later member of its own instant and many far
    timers; the instant goes on — hole skipped, call_soon joins it — and
    the sanitizer's audit (members recounted over the buckets, heap and
    buckets holding the same instants, dead ones counted) passes on what
    is left."""
    monkeypatch.setenv(ENV_VAR, "1")
    obs = MetricsRegistry()
    eng = Engine(obs=obs)
    order = []
    doomed = []

    def purge():
        order.append("purge")
        for h in doomed:
            h.cancel()
        eng.call_soon(lambda: order.append("soon"))

    eng.schedule(1e-6, purge)
    doomed.append(eng.schedule(1e-6, lambda: order.append("cancelled")))
    eng.schedule(1e-6, lambda: order.append("last"))
    doomed.extend(eng.schedule(5.0 + i * 1e-6, lambda: order.append("far"))
                  for i in range(300))
    for _ in range(AUDIT_INTERVAL):
        eng.schedule(2e-6, lambda: None)
    eng.run()
    assert order == ["purge", "last", "soon"]
    assert eng.pending == 0 and eng.queue_garbage == 0
    audits = obs.counter("sanitize.checks", ("invariant",))
    assert audits.get(("engine_pending_audit",)) >= 1


def test_handle_api_callbacks_count_their_own_dispatches():
    """Under a registry, what schedule / schedule_at / call_soon run is
    counted when it runs, under its qualified name, in first-dispatch
    order; a raw post is its owner's to count (World derives those)."""
    obs = MetricsRegistry()
    eng = Engine(obs=obs)

    class Timer:
        def fire(self):
            pass

    def tick():
        pass

    eng.schedule(1e-6, tick)
    eng.schedule_at(2e-6, tick)
    eng.schedule(3e-6, tick).cancel()  # never runs, never counted
    eng.call_soon(Timer().fire)
    eng.post(0.0, lambda _arg: None, 1)
    eng.run()
    values = obs.counter("engine.events_dispatched", ("callback",)).values
    assert list(values.items()) == [((Timer.fire.__qualname__,), 1),
                                    ((tick.__qualname__,), 2)]
    assert eng.events_dispatched == 4 and eng.events_counted == 3
