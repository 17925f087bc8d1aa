"""Deterministic discrete-event simulation engine.

The engine is a classic calendar queue: events are ``[time, seq, state,
callback]`` records ordered by time with a monotonically increasing
sequence number as a tie-breaker, which makes every run bit-reproducible —
a property the correctness tests rely on to compare failure-free and
post-failure executions message by message.

The engine knows nothing about MPI, processes or fault tolerance; it only
dispatches callbacks at virtual times.

Hot-path layout
---------------
Queue entries are plain lists, not objects: heap sift comparisons stay in
C (list-vs-list lexicographic compare never reaches the callback slot
because sequence numbers are unique), and the dispatch loop in
:meth:`Engine.run` pops each entry exactly once instead of the classic
peek-then-pop double heap traversal.  Cancellation flips the entry's state
slot in place; cancelled entries are dropped lazily when they surface at
the head, and a compaction pass rebuilds the heap whenever cancelled
garbage exceeds half the queue (heavy cancellers — failure purges — would
otherwise accumulate dead entries in the middle of the heap forever).

Observability: pass a :class:`repro.obs.MetricsRegistry` to count events
dispatched per callback class and sample queue depth.  With the default
``obs=None`` the dispatch loop pays a single identity comparison per
event.
"""

from __future__ import annotations

import gc
import heapq
from typing import Any, Callable

from ..errors import SimulationError
from ..lint.sanitize import AUDIT_INTERVAL, sanitizer_for
from ..obs.registry import DEPTH_BUCKETS

__all__ = ["Engine", "EventHandle"]

# Queue-entry slots: [time, seq, state, callback] for singleton events;
# run entries carry two extra slots, [..., items, live] (see
# Engine.schedule_run_at).
_TIME, _SEQ, _STATE, _CALLBACK = 0, 1, 2, 3
_ITEMS, _LIVE = 4, 5
# Entry states.
_PENDING, _CANCELLED, _DISPATCHED = 0, 1, 2

#: never compact below this queue size (rebuild cost would dominate)
_COMPACT_MIN = 64

#: dispatch-count mask between sanitizer pending-counter audits
_AUDIT_MASK = AUDIT_INTERVAL - 1


class EventHandle:
    """Opaque handle returned by :meth:`Engine.schedule`; allows cancellation."""

    __slots__ = ("_entry", "_engine")

    def __init__(self, entry: list, engine: "Engine"):
        self._entry = entry
        self._engine = engine

    @property
    def time(self) -> float:
        return self._entry[_TIME]

    @property
    def cancelled(self) -> bool:
        return self._entry[_STATE] == _CANCELLED

    def cancel(self) -> None:
        """Mark the event so the engine skips it; cancelling twice (or after
        the event already ran) is a no-op."""
        entry = self._entry
        if entry[_STATE] != _PENDING:
            return
        entry[_STATE] = _CANCELLED
        engine = self._engine
        engine._pending -= 1
        engine._cancelled += 1
        engine._maybe_compact()


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
        self._queue: list[list] = []
        self._seq = 0
        self._pending = 0
        self._cancelled = 0
        self._events_dispatched = 0
        self._compactions = 0
        self._running = False
        self.obs = obs
        # REPRO_SANITIZE: None when off — the dispatch loop pays a single
        # identity comparison, mirroring the cached-instrument pattern
        self._san = sanitizer_for(obs)
        if obs is not None:
            obs.bind_time_source(self)
            # slot-resolve the instruments once: dispatch recording runs
            # per event, so it works against bare cells (callback label ->
            # CounterCell, cached below) rather than registry lookups
            self._disp_counter = self.obs.counter(
                "engine.events_dispatched", ("callback",)
            )
            self._disp_cells: dict[Any, Any] = {}
            # queue depth is sampled 1-in-hist_sample (countdown inlined in
            # the dispatch loop); the "current" gauge rides the same ticks
            self._depth_hist = self.obs.histogram(
                "engine.queue_depth", DEPTH_BUCKETS
            )
            self._depth_interval = self.obs.hist_sample
            self._depth_cd = 1
            self._depth_gauge = self.obs.gauge("engine.queue_depth.current")
        # virtual-time series recorder: sampled by a boundary hook in the
        # dispatch loop (no queue entries, no sequence numbers — arming it
        # cannot perturb event order; see obs/timeseries.py).  bind_engine
        # is first-wins, so a second world on the same registry stays out.
        self._ts = None
        if self.obs is not None:
            ts = self.obs.timeseries
            if ts is not None and ts.bind_engine(self):
                self._ts = ts
                ts.track_counter("engine.events_dispatched", self._disp_counter)
                ts.probe("engine.pending", lambda: self._pending)

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, callback: Callable[[], None]) -> EventHandle:
        """Schedule ``callback`` to run ``delay`` seconds from now.

        ``delay`` must be non-negative; a zero delay runs after all events
        already scheduled for the current instant (FIFO within a timestamp).
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        seq = self._seq = self._seq + 1
        entry = [self.now + delay, seq, _PENDING, callback]
        self._pending += 1
        heapq.heappush(self._queue, entry)
        return EventHandle(entry, self)

    def schedule_at(self, time: float, callback: Callable[[], None]) -> EventHandle:
        """Schedule ``callback`` at absolute virtual time ``time``.

        Times in the past are clamped to the current instant.  The event is
        stored at exactly ``time`` (no ``now + (time - now)`` float round
        trip), so callers relying on strict per-timestamp ordering — the
        network's per-channel FIFO tie-break — keep their invariants even
        at large virtual times where one ulp matters.
        """
        time = float(time)
        now = self.now
        if time < now:
            time = now
        seq = self._seq = self._seq + 1
        entry = [time, seq, _PENDING, callback]
        self._pending += 1
        heapq.heappush(self._queue, entry)
        return EventHandle(entry, self)

    def call_soon(self, callback: Callable[[], None]) -> EventHandle:
        """Schedule ``callback`` at the current instant (after queued peers)."""
        return self.schedule(0.0, callback)

    def schedule_run_at(
        self, time: float, callback: Callable[[list], None], items: list
    ) -> list:
        """Schedule a *run*: a batch of logical events sharing one timestamp.

        The whole batch occupies a single queue entry, ``[time, seq, state,
        callback, items, live]`` — the heap is popped once and
        ``callback(items)`` dispatches every member, so a burst of ``n``
        same-instant events costs one sift instead of ``n``.  ``items`` may
        contain ``None`` holes where members were cancelled; the callback
        must skip them.  ``live`` counts the non-hole members and is what
        the engine's event accounting (``pending``, ``events_dispatched``,
        obs dispatch counters) is kept in terms of, so a run of ``n``
        members is indistinguishable from ``n`` singleton events in every
        counter.

        Returns the entry, an opaque token for :meth:`run_append` and
        :meth:`cancel_run_member` — there is no per-member handle object,
        the caller keeps ``(entry, index)``.
        """
        time = float(time)
        now = self.now
        if time < now:
            time = now
        seq = self._seq = self._seq + 1
        entry = [time, seq, _PENDING, callback, items, len(items)]
        self._pending += len(items)
        heapq.heappush(self._queue, entry)
        return entry

    def run_append(self, entry: list, time: float, item: Any) -> int:
        """Add ``item``, due at ``time``, to a run that is still *open* at
        exactly that time; returns its member index, or -1 when it is not
        (the caller schedules a new run).

        A run is open while it has not been dispatched or cancelled and *no
        other event has been scheduled since* (its sequence number is still
        the engine's latest).  The second condition is what makes appending
        order-safe — the member dispatches exactly where a fresh singleton
        would have (same time, next sequence slot, nothing in between).
        """
        if (entry[_TIME] != time or entry[_STATE] != _PENDING
                or self._seq != entry[_SEQ]):
            return -1
        items = entry[_ITEMS]
        items.append(item)
        entry[_LIVE] += 1
        self._pending += 1
        return len(items) - 1

    def cancel_run_member(self, entry: list, idx: int) -> None:
        """Cancel one logical event inside a run entry (leaves a ``None``
        hole); a no-op once the run dispatched or the member is gone."""
        items = entry[_ITEMS]
        if entry[_STATE] != _PENDING or items[idx] is None:
            return
        items[idx] = None
        entry[_LIVE] -= 1
        self._pending -= 1
        if entry[_LIVE] == 0:
            # last member gone: the entry itself is garbage now
            entry[_STATE] = _CANCELLED
            self._cancelled += 1
            self._maybe_compact()

    # ------------------------------------------------------------------
    # Cancelled-entry compaction
    # ------------------------------------------------------------------
    def _maybe_compact(self) -> None:
        """Rebuild the heap when cancelled garbage exceeds half the queue.

        :meth:`run`'s lazy skip only drops cancelled entries that reach the
        *head*; workloads that cancel heavily (network purges on failure)
        strand garbage in the middle of the heap, so without this bound the
        queue grows without limit while ``pending`` stays small.
        """
        if self._cancelled < _COMPACT_MIN or self._cancelled * 2 < len(self._queue):
            return
        queue = self._queue
        # in place: run() caches a reference to the queue list, so the
        # compacted heap must keep the same identity
        queue[:] = [e for e in queue if e[_STATE] == _PENDING]
        heapq.heapify(queue)
        self._cancelled = 0
        self._compactions += 1

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    @property
    def pending(self) -> int:
        """Number of scheduled, non-cancelled events (O(1): maintained as a
        live counter on schedule/cancel/dispatch rather than scanned)."""
        return self._pending

    @property
    def events_dispatched(self) -> int:
        return self._events_dispatched

    @property
    def queue_garbage(self) -> int:
        """Cancelled entries still physically present in the heap."""
        return self._cancelled

    @property
    def compactions(self) -> int:
        """Number of lazy compaction passes performed so far."""
        return self._compactions

    def _audit_pending(self) -> None:
        """Sanitizer: recount live queue entries against the O(1) counter."""
        live = sum(
            (e[_LIVE] if len(e) > _ITEMS else 1)
            for e in self._queue
            if e[_STATE] == _PENDING
        )
        self._san.engine_pending_audit(live, self._pending)

    def _resolve_disp_cell(self, cb: Any, key: Any) -> Any:
        """Slow path: first dispatch of a callback site — derive the label
        and bind its counter cell into the code-object cache."""
        func = getattr(cb, "__func__", cb)
        label = getattr(func, "__qualname__", None) or type(cb).__name__
        cell = self._disp_counter.slot((label,))
        self._disp_cells[key] = cell
        return cell

    def run(self, until: float | None = None, max_events: int | None = None) -> None:
        """Run until the queue drains, ``until`` is reached, or ``max_events``.

        ``until`` is an absolute virtual time; events scheduled exactly at
        ``until`` are executed.  When ``until`` is given, the clock lands on
        ``until`` whether the horizon cut the queue short *or* the queue
        drained early — ``engine.now`` never lags the requested horizon.
        """
        if self._running:
            raise SimulationError("engine.run() is not reentrant")
        self._running = True
        dispatched = 0
        queue = self._queue
        heappop = heapq.heappop
        unbounded = until is None and max_events is None
        # hoist the instrumentation handles: the inlined recording below
        # touches only locals and bare cells, so the fully-enabled loop
        # stays free of per-event registry lookups
        obs_on = self.obs is not None
        if obs_on:
            disp_get = self._disp_cells.get
            depth_interval = self._depth_interval
            depth_hist_observe = self._depth_hist.observe
            depth_gauge = self._depth_gauge
            depth_cd = self._depth_cd
        san = self._san
        # ts_next is +inf when no recorder is armed, so the recorder-off
        # path pays one float compare per event
        ts = self._ts
        ts_next = ts.next_time if ts is not None else float("inf")
        events_dispatched = self._events_dispatched
        # A run allocates no cyclic garbage (tests/integration pins it), so
        # the hundreds of young-generation passes its container churn would
        # schedule find nothing: pause the collector for the dispatch loop.
        # Finished worlds are freed by reference count — see World.close().
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            while True:
                # drop cancelled garbage that surfaced at the head, then
                # peek the head entry once — the same entry is popped below,
                # so each live event costs exactly one sift-down
                while queue and queue[0][_STATE] == _CANCELLED:
                    heappop(queue)
                    self._cancelled -= 1
                if not queue:
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
                time = queue[0][_TIME]
                if not unbounded:
                    if until is not None and time > until:
                        if until >= ts_next:
                            ts_next = ts.sample_through(until)
                        self.now = until
                        break
                    if max_events is not None and dispatched >= max_events:
                        break
                # time-series boundary hook: sample every grid point the
                # head event has reached *before* dispatching it, so each
                # sample reads the state as of the boundary instant
                if time >= ts_next:
                    ts_next = ts.sample_through(time)
                entry = heappop(queue)
                if time < self.now:
                    raise SimulationError(
                        "event queue corrupted: time went backwards"
                    )
                self.now = time
                entry[_STATE] = _DISPATCHED
                callback = entry[_CALLBACK]
                # run entries ([time, seq, state, callback, items, live])
                # dispatch a whole same-instant batch from one heap pop
                batch = len(entry) > _ITEMS
                live = entry[_LIVE] if batch else 1
                self._pending -= live
                events_dispatched += live
                dispatched += live
                if obs_on:
                    # attribute the dispatch to the callback's qualified
                    # name.  The label cell is cached keyed by the callback's
                    # *code object*: bound methods of one method and every
                    # lambda from one call site share it, so the cache stays
                    # as small as the label cardinality while the per-event
                    # key is two C-slot loads — no qualname string fetch.  A
                    # run entry attributes all ``live`` members in one update.
                    try:
                        key = callback.__code__
                    except AttributeError:
                        key = type(callback)
                    cell = disp_get(key)
                    if cell is None:
                        cell = self._resolve_disp_cell(callback, key)
                    cell.n += live
                    depth_cd -= live
                    if depth_cd <= 0:
                        depth_cd = depth_interval
                        depth = len(queue)
                        depth_hist_observe(depth)
                        depth_gauge.value = depth
                        if depth > depth_gauge.high_water:
                            depth_gauge.high_water = depth
                if san is not None and (events_dispatched & _AUDIT_MASK) < live:
                    self._events_dispatched = events_dispatched
                    self._audit_pending()
                if batch:
                    callback(entry[_ITEMS])
                else:
                    callback()
        finally:
            if gc_was_enabled:
                gc.enable()
            self._running = False
            self._events_dispatched = events_dispatched
            if obs_on:
                self._depth_cd = depth_cd

    def close(self) -> None:
        """Drop every event still queued (an aborted or horizon-bounded run
        leaves some, and their callbacks reference whoever scheduled them);
        the clock and the dispatch counters stay readable."""
        self._queue.clear()
        self._pending = 0
        self._cancelled = 0

    def _peek_time(self) -> float:
        while self._queue and self._queue[0][_STATE] == _CANCELLED:
            heapq.heappop(self._queue)
            self._cancelled -= 1
        if not self._queue:
            return float("inf")
        return self._queue[0][_TIME]
