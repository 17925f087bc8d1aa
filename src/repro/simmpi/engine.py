"""Deterministic discrete-event simulation engine.

The queue is a calendar of *instants*: a min-heap of the distinct pending
virtual times plus ``dict[time] -> bucket``, a bucket being the flat list
``[time, holes, fn, arg, fn, arg, ...]`` of that instant's events in the
order they were scheduled.  Dispatch is by instant, then FIFO within the
instant — exactly the ``(time, sequence number)`` order of a heap of
single events, because there is one bucket per instant and append order
*is* sequence order — which makes every run bit-reproducible, a property
the correctness tests rely on to compare failure-free and post-failure
executions message by message.

The engine knows nothing about MPI, processes or fault tolerance; it only
dispatches callbacks at virtual times.

Hot-path layout
---------------
SPMD ranks move in lockstep, so a run has an order of magnitude fewer
instants than events.  Scheduling is a ``dict.get`` and two appends; only
the first event of an instant pays a ``heappush``.  :meth:`Engine.run`
does its horizon, time-series and clock work once per instant and then
walks the bucket by index, so an event scheduled *for the current
instant* from inside a callback joins the bucket being walked and never
touches the heap.  No event is indexed by owner: a rare reader (a purge)
finds its events with :meth:`Engine.queued`, one scan of the calendar.
Cancellation leaves a hole (``None``) in the bucket; an instant whose
every event was cancelled maps to ``None`` and is dropped when it surfaces
at the head of the heap.  Cancels are rare — failure purges and the
recovery watchdog — so dead instants stay few and are never compacted
out of the middle of the heap (docs/performance.md, "Cancel census").

Observability: under a :class:`repro.obs.MetricsRegistry` the loop still
attributes no event.  What ``schedule`` / ``schedule_at`` / ``call_soon``
post counts itself when it runs; the raw posts — a delivery per message, a
resume per program step — are read from counts their owners keep (see
``World``).  Queue depth is sampled at dispatch 1, 1 + N, ...: one int
compare per event, with a registry or without.
"""

from __future__ import annotations

import gc
import heapq
import sys
from typing import Any, Callable

from ..errors import SimulationError
from ..lint.sanitize import AUDIT_INTERVAL, sanitizer_for
from ..obs.registry import DEPTH_BUCKETS

__all__ = ["Engine"]

# Bucket layout: [time, holes, fn, arg, fn, arg, ...] — ``holes`` counts the
# members cancelled out of the bucket, members start at index _FIRST.
_TIME, _HOLES, _FIRST = 0, 1, 2

#: the ``arg`` of an event whose callback takes none
_NO_ARG: Any = object()

#: dispatch-count mask between sanitizer pending-counter audits
_AUDIT_MASK = AUDIT_INTERVAL - 1


def _label(callback: Callable[..., None]) -> str:
    """``callback``'s ``engine.events_dispatched`` label: its qualname."""
    func = getattr(callback, "__func__", callback)
    return getattr(func, "__qualname__", None) or type(callback).__name__


class Engine:
    """Event loop with a virtual clock.

    Parameters
    ----------
    start_time:
        Initial value of the virtual clock, in seconds.
    obs:
        Optional metrics registry; ``None`` leaves the dispatch loop
        uninstrumented.
    """

    def __init__(self, start_time: float = 0.0, obs: Any = None):
        self.now: float = float(start_time)
        # the calendar: distinct pending instants, and each one's bucket
        # (None once every member was cancelled); same keys, each once
        self._heap: list[float] = []
        self._buckets: dict[float, list | None] = {}
        # where the walk of the head bucket resumes: past _FIRST only
        # between a run() that ``max_events`` (or a raising callback)
        # stopped mid-instant and the run() that finishes the instant
        self._cursor = _FIRST
        # pending = posted - dispatched - removed (cancelled or dropped):
        # one count moves per event, each current mid-run
        self._posted = 0
        self._removed = 0
        self._events_dispatched = 0
        self.events_counted = 0  # schedule/schedule_at/call_soon runs (registry only)
        self._garbage = 0
        self._running = False
        self.obs = obs
        self._san = sanitizer_for(obs)  # REPRO_SANITIZE: None when off
        # depth-sample stride (0: no registry); next dispatch count with work
        self._depth_every = obs.hist_sample if obs is not None else 0
        self._due = (1 if obs is not None
                     else AUDIT_INTERVAL if self._san is not None
                     else sys.maxsize)
        if obs is not None:
            obs.bind_time_source(self)
            self._disp_counter = self.obs.counter(
                "engine.events_dispatched", ("callback",)
            )
            self._disp_cells: dict[str, Any] = {}  # label -> its cell
            self._depth_hist = self.obs.histogram(
                "engine.queue_depth", DEPTH_BUCKETS
            )
            self._depth_gauge = self.obs.gauge("engine.queue_depth.current")
        # virtual-time series recorder: sampled by a boundary hook in the
        # dispatch loop (no queue entries — arming it cannot perturb event
        # order; see obs/timeseries.py).  bind_engine is first-wins, so a
        # second world on the same registry stays out.
        self._ts = None
        if self.obs is not None:
            ts = self.obs.timeseries
            if ts is not None and ts.bind_engine(self):
                self._ts = ts
                ts.probe("engine.events_dispatched",
                         lambda: self._events_dispatched, kind="counter")
                ts.probe("engine.pending", lambda: self.pending)

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def post(self, delay: float, fn: Callable[..., None],
             arg: Any = _NO_ARG) -> list:
        """Schedule ``fn(arg)`` — ``fn()`` without ``arg`` — ``delay``
        seconds from now, after every event already scheduled for that
        instant (FIFO within a timestamp).  ``delay`` must be non-negative.

        This is the allocation-free primitive: it returns the instant's
        bucket, which the event joined as its last member.  A caller that
        may cancel keeps ``(bucket, len(bucket) - 2)`` for :meth:`cancel`.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        return self.post_at(self.now + delay, fn, arg)

    def post_at(self, time: float, fn: Callable[..., None],
                arg: Any = _NO_ARG) -> list:
        """:meth:`post` at absolute virtual time ``time`` (a float).

        Times in the past are clamped to the current instant.  The event is
        stored at exactly ``time`` (no ``now + (time - now)`` float round
        trip), so callers relying on strict per-timestamp ordering — the
        network's per-channel FIFO tie-break — keep their invariants even
        at large virtual times where one ulp matters.
        """
        if time < self.now:
            time = self.now
        bucket = self._buckets.get(time)
        if bucket is None:
            bucket = self._open(time)
        bucket.append(fn)
        bucket.append(arg)
        self._posted += 1
        return bucket

    def _open(self, time: float) -> list:
        """A fresh bucket for an instant that has no live event."""
        buckets = self._buckets
        if time in buckets:
            # a dead instant comes back to life: it is in the heap already
            self._garbage -= 1
        else:
            heapq.heappush(self._heap, time)
        bucket = buckets[time] = [time, 0]
        return bucket

    def schedule(self, delay: float, callback: Callable[[], None]) -> list:
        """Schedule ``callback`` to run ``delay`` seconds from now; returns
        the bucket, as :meth:`post` does."""
        if self.obs is not None:
            callback = self._counted_callback(callback)
        return self.post(delay, callback)

    def schedule_at(self, time: float, callback: Callable[[], None]) -> list:
        """Schedule ``callback`` at absolute virtual time ``time``."""
        if self.obs is not None:
            callback = self._counted_callback(callback)
        return self.post_at(float(time), callback)

    def call_soon(self, callback: Callable[[], None]) -> list:
        """Schedule ``callback`` at the current instant (after queued peers)."""
        return self.schedule(0.0, callback)

    def _counted_callback(self, callback: Callable[[], None]) -> Callable[[], None]:
        """``callback``, counting its dispatch (the first resolves the cell
        of its label)."""
        label, cells = _label(callback), self._disp_cells
        slot = self._disp_counter.slot

        def counted() -> None:
            self.events_counted += 1
            (cells.get(label) or cells.setdefault(label, slot((label,)))).n += 1
            callback()

        return counted

    def queued(self, fn: Callable, pred: Callable[[Any], bool]) -> list[tuple[list, int]]:
        """The ``(bucket, index)`` of each queued ``fn(arg)`` that ``pred(arg)`` accepts:
        ``fn`` by identity, the bucket being walked included."""
        return [(bucket, i) for bucket in self._buckets.values() if bucket
                for i in range(_FIRST, len(bucket), 2)
                if bucket[i] is fn and pred(bucket[i + 1])]

    def cancel(self, bucket: list, idx: int) -> bool:
        """Cancel the event at ``bucket[idx]`` (see :meth:`post`), leaving a
        hole the dispatch walk skips — also when the bucket is the one being
        walked.  Returns ``False``, and does nothing, when the event already
        ran or was cancelled."""
        if idx >= len(bucket) or bucket[idx] is None:
            return False
        bucket[idx] = bucket[idx + 1] = None
        self._removed += 1
        holes = bucket[_HOLES] = bucket[_HOLES] + 1
        if 2 * holes == len(bucket) - _FIRST:
            # its last member gone, the instant is garbage.  Never the
            # bucket being walked: an event that ran left no hole behind.
            self._buckets[bucket[_TIME]] = None
            self._garbage += 1
        return True

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    @property
    def pending(self) -> int:
        """Number of scheduled, non-cancelled events (O(1): derived from
        the live post / dispatch / cancel counts rather than scanned)."""
        return self._posted - self._events_dispatched - self._removed

    @property
    def events_dispatched(self) -> int:
        """Events dispatched so far — current mid-run too."""
        return self._events_dispatched

    @property
    def queue_garbage(self) -> int:
        """Instants still in the heap whose every event was cancelled."""
        return self._garbage

    def _audit_pending(self) -> None:
        """Sanitizer: recount the live members over the buckets against
        the O(1) counter, and check that heap instants and bucket keys are
        the same set, each once."""
        buckets = self._buckets
        live = dead = 0
        for bucket in buckets.values():
            if bucket is None:
                dead += 1
            else:
                live += sum(fn is not None for fn in bucket[_FIRST::2])
        in_step = sorted(self._heap) == sorted(buckets) and dead == self._garbage
        self._san.engine_pending_audit(live, self.pending, in_step)

    def _sample(self, count: int) -> int:
        """Dispatch ``count`` (popped, not yet run) fell due: take the depth
        sample and / or sanitizer audit due; returns the next due count."""
        due = sys.maxsize
        every = self._depth_every
        if every:
            if (count - 1) % every == 0:
                depth = self._posted - count - self._removed  # self.pending
                self._depth_hist.observe(depth)
                self._depth_gauge.set(depth)
            due = count + 1 + (-count) % every
        if self._san is not None:
            if not count & _AUDIT_MASK:
                self._audit_pending()
            due = min(due, (count | _AUDIT_MASK) + 1)
        return due

    def run(self, until: float | None = None, max_events: int | None = None) -> None:
        """Run until the queue drains, ``until`` is reached, or ``max_events``
        events were dispatched.

        ``until`` is an absolute virtual time; events scheduled exactly at
        ``until`` are executed.  When ``until`` is given, the clock lands on
        ``until`` whether the horizon cut the queue short *or* the queue
        drained early — ``engine.now`` never lags the requested horizon.
        ``max_events`` is exact: a stop that falls inside an instant leaves
        the rest of its bucket pending, and the next ``run()`` resumes it.
        """
        if self._running:
            raise SimulationError("engine.run() is not reentrant")
        self._running = True
        heap = self._heap
        buckets = self._buckets
        heappop = heapq.heappop
        # ts_next is +inf when no recorder is armed, so the recorder-off
        # path pays one float compare per instant
        ts = self._ts
        ts_next = ts.next_time if ts is not None else float("inf")
        events_dispatched = self._events_dispatched
        stop_at = (sys.maxsize if max_events is None
                   else events_dispatched + max_events)
        due = self._due  # the next dispatch count _sample has work at
        i = self._cursor
        # A run allocates no cyclic garbage (tests/integration pins it), so
        # the hundreds of young-generation passes its container churn would
        # schedule find nothing: pause the collector for the dispatch loop.
        # Finished worlds are freed by reference count — see World.close().
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            while True:
                if not heap:
                    # queue drained before the horizon: still advance the
                    # clock so back-to-back run(until=...) calls see time
                    # move monotonically to each horizon
                    if until is not None and until > self.now:
                        self.now = until
                    if self.now >= ts_next:
                        # grid boundaries up to the final clock value are
                        # still due (the state can no longer change)
                        ts_next = ts.sample_through(self.now)
                    break
                time = heap[0]
                bucket = buckets[time]
                if bucket is None:
                    # a dead instant surfaced: drop it, clock untouched
                    heappop(heap)
                    del buckets[time]
                    self._garbage -= 1
                    continue
                if until is not None and time > until:
                    if until >= ts_next:
                        ts_next = ts.sample_through(until)
                    # never backwards: a half-walked instant is found again
                    # as the heap's head because nothing can be scheduled
                    # before it
                    if until > self.now:
                        self.now = until
                    break
                if events_dispatched >= stop_at:
                    break
                # time-series boundary hook: sample every grid point the
                # head instant has reached *before* dispatching it, so each
                # sample reads the state as of the boundary instant
                if time >= ts_next:
                    ts_next = ts.sample_through(time)
                if time < self.now:
                    raise SimulationError(
                        "event queue corrupted: time went backwards"
                    )
                self.now = time
                # walk by index and re-read the length: callbacks append to
                # this very bucket (call_soon, zero delays, clamped times)
                while i < len(bucket):
                    fn = bucket[i]
                    if fn is None:
                        i += 2
                        continue
                    if events_dispatched >= stop_at:
                        break
                    arg = bucket[i + 1]
                    # a None slot is "ran or cancelled" to Engine.cancel
                    bucket[i] = None
                    i += 2
                    events_dispatched += 1
                    self._events_dispatched = events_dispatched
                    if events_dispatched >= due:
                        due = self._sample(events_dispatched)
                    if arg is _NO_ARG:
                        fn()
                    else:
                        fn(arg)
                else:
                    # instant finished.  Every later instant is strictly
                    # later, so it is still the heap's head; emptying the
                    # bucket bounds what a kept (bucket, index) can pin.
                    heappop(heap)
                    del buckets[time]
                    bucket.clear()
                    i = _FIRST
                    continue
                break  # max_events fell inside the instant
        finally:
            if gc_was_enabled:
                gc.enable()
            self._running = False
            self._cursor = i
            self._due = due

    def close(self) -> None:
        """Drop every event still queued (an aborted or horizon-bounded run
        leaves some, and their callbacks reference whoever scheduled them);
        the clock and the dispatch counters stay readable."""
        self._heap.clear()
        self._buckets.clear()
        self._cursor = _FIRST
        self._removed += self.pending
        self._garbage = 0
