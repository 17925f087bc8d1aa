"""The engine's dispatch order against a reference scheduler.

The engine keeps one bucket per instant and appends events to it; the
claim is that this is *exactly* the order of the textbook queue — a heap
of ``(time, sequence number)`` entries with lazy cancellation.  The
textbook queue lives here, in the test, and seeded random programs are
run against both: same dispatch log, same ``pending`` /
``events_dispatched`` / clock after every ``run()``.
"""

import heapq
import random

import pytest

from repro.simmpi.engine import Engine


class ReferenceScheduler:
    """Heap of ``[time, seq, state, callback]``; ties break by ``seq``.
    Scheduling returns the entry and :meth:`cancel` takes it back, the
    shape of the engine's ``(bucket, index)``."""

    def __init__(self):
        self.now, self.heap, self.seq = 0.0, [], 0
        self.pending = self.events_dispatched = 0

    def schedule_at(self, time, callback):
        self.seq += 1
        entry = [max(float(time), self.now), self.seq, "pending", callback]
        heapq.heappush(self.heap, entry)
        self.pending += 1
        return entry

    def schedule(self, delay, callback):
        return self.schedule_at(self.now + delay, callback)

    def call_soon(self, callback):
        return self.schedule_at(self.now, callback)

    def cancel(self, entry, _index):
        if entry[2] == "pending":
            entry[2] = "cancelled"
            self.pending -= 1

    def run(self, until=None, max_events=None):
        heap, dispatched = self.heap, 0
        while True:
            while heap and heap[0][2] == "cancelled":
                heapq.heappop(heap)
            if not heap or (until is not None and heap[0][0] > until):
                if until is not None:
                    self.now = max(self.now, until)
                return
            if max_events is not None and dispatched >= max_events:
                return
            entry = heapq.heappop(heap)
            self.now, entry[2] = entry[0], "ran"
            self.pending -= 1
            self.events_dispatched += 1
            dispatched += 1
            entry[3]()


#: delays and absolute times are multiples of 1/4, so ties are exact
_DELAYS = (0.0, 0.0, 0.25, 0.5, 0.5, 1.0, 2.0)
_MAX_EVENTS = 400


def _drive(sched, seed):
    """Run the random program ``seed`` on ``sched``; returns everything an
    observer can see.  What an event does when it fires depends on its
    label alone, never on when it fires, so the two schedulers are handed
    the same program whatever order they dispatch it in."""
    log, checkpoints, events = [], [], []

    def act(rng):
        """One scheduling or cancelling action, from wherever it is called."""
        kind = rng.randrange(6)
        if kind == 5 or len(events) >= _MAX_EVENTS:
            if events:
                # any event ever made: one that ran, one cancelled before,
                # a later member of the instant being dispatched, ...
                sched.cancel(*events[rng.randrange(len(events))])
            return
        label = len(events)
        callback = lambda: fire(label)  # noqa: E731
        if kind == 0:
            bucket = sched.call_soon(callback)
        elif kind == 1:
            # absolute, a quarter of them in the past (clamped to now)
            bucket = sched.schedule_at(
                sched.now + rng.choice((-1.0, 0.0, 0.25, 1.5)), callback)
        else:
            bucket = sched.schedule(rng.choice(_DELAYS), callback)
        events.append((bucket, len(bucket) - 2))

    def fire(label):
        log.append((sched.now, label))
        rng = random.Random(seed * 1_000_003 + label)
        for _ in range(rng.choice((0, 0, 1, 2, 4))):
            act(rng)

    outside = random.Random(seed)
    for _ in range(30):
        act(outside)
    for _ in range(40):
        cut = outside.randrange(4)
        # horizons on and between instants, budgets that fall mid-instant
        until = sched.now + outside.choice((0.0, 0.125, 0.25, 0.625, 1.0))
        budget = outside.randrange(8)
        if cut == 0:
            sched.run(until=until)
        elif cut == 1:
            sched.run(max_events=budget)
        elif cut == 2:
            sched.run(until=until, max_events=budget)
        else:
            sched.run(max_events=1)
            sched.run(max_events=0)
        checkpoints.append(
            (len(log), sched.now, sched.pending, sched.events_dispatched))
        for _ in range(outside.randrange(4)):
            act(outside)
    sched.run()
    checkpoints.append(
        (len(log), sched.now, sched.pending, sched.events_dispatched))
    return log, checkpoints


@pytest.mark.parametrize("seed", range(40))
def test_dispatch_order_equals_the_reference_scheduler(seed):
    engine = Engine()
    log, checkpoints = _drive(engine, seed)
    ref_log, ref_checkpoints = _drive(ReferenceScheduler(), seed)
    assert log == ref_log
    assert checkpoints == ref_checkpoints
    assert checkpoints[-1][2] == 0  # drained
    assert engine.queue_garbage == 0


def test_the_programs_reach_the_cases_the_order_argument_is_about():
    """The random programs are only evidence if they are dense in
    same-instant ties and in stops that fall inside an instant."""
    ties = mid_instant_stops = 0
    for seed in range(40):
        log, checkpoints = _drive(ReferenceScheduler(), seed)
        ties += sum(a[0] == b[0] for a, b in zip(log, log[1:]))
        mid_instant_stops += sum(
            0 < n < len(log) and log[n - 1][0] == log[n][0]
            for n, *_ in checkpoints)
    assert ties > 1000
    assert mid_instant_stops > 100
