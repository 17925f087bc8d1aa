"""Work-stealing task scheduler over a process pool.

The one-shot sweep executor used ``Pool.imap_unordered``, which hands the
pool a frozen task list and lets the C-level chunker assign work.  That
has two operational problems for an always-on campaign service:

* **head-of-line blocking** — a slow task (a 4096-rank Table-1 cell)
  pins one worker while the chunker may still route further tasks behind
  it; and
* **undetectable hard crashes** — a worker that dies without returning
  (``os._exit``, OOM kill, segfault) leaves ``imap`` waiting forever or
  loses results silently.

This scheduler replaces both.  Tasks are split into per-worker deques
(contiguous blocks, preserving the locality of the old chunking); each
logical worker *leases* one task at a time from the head of its own
deque, and when its deque runs dry it *steals* from the tail of the
victim with the most remaining work.  The parent coordinates leases, so
a slow task occupies exactly one worker slot while every other slot
drains the rest of the campaign.

Execution rides on :class:`concurrent.futures.ProcessPoolExecutor`,
which (unlike ``multiprocessing.Pool``) detects abrupt worker death and
raises ``BrokenProcessPool``.  On a broken pool the scheduler rebuilds
the executor and retries every in-flight task once — the crashing task
crashes again deterministically and is recorded as *lost*, while
innocent tasks that happened to share the pool complete on retry.  Lost
indices are reported on the outcome; :func:`repro.sweep.run_sweep`
turns them into its historical ``RuntimeError: sweep lost results …``.

Lease/steal/loss counts land in the accounting registry's
``service.leases`` / ``service.steals`` / ``service.tasks_lost``
counters, which the campaign service streams to dashboards.

A scheduler may be reused across many runs (the campaign service keeps
one alive for its whole lifetime — the pool persists between jobs);
:meth:`close` tears the pool down.
"""

from __future__ import annotations

from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Callable

from ..sweep.executor import _pinned_start_method, mp_context

__all__ = ["SchedulerOutcome", "WorkStealingScheduler"]

#: attempts per task before it is declared lost (1 initial + 1 retry)
MAX_ATTEMPTS = 2


@dataclass
class SchedulerOutcome:
    """What one :meth:`WorkStealingScheduler.run` call did."""

    #: task index -> worker-function return value, for completed tasks
    results: dict[int, Any] = field(default_factory=dict)
    #: indices whose worker died on every attempt (hard crash)
    lost: list[int] = field(default_factory=list)
    leases: int = 0
    steals: int = 0
    #: executor rebuilds after a broken pool
    rebuilds: int = 0


class WorkStealingScheduler:
    """Parent-coordinated work-stealing over a process pool.

    ``workers`` bounds the number of concurrent leases; ``mp_method`` is
    an explicit multiprocessing start method (``None`` uses the pinned
    repo-wide default from :mod:`repro.sweep.executor` — never the
    silent platform default).
    """

    def __init__(self, workers: int, mp_method: str | None = None,
                 obs: Any = None):
        self.workers = max(1, int(workers))
        self.mp_method = mp_method or _pinned_start_method()
        self.obs = obs
        self._executor: ProcessPoolExecutor | None = None

    # -- pool lifecycle -------------------------------------------------
    def _ensure_executor(self) -> ProcessPoolExecutor:
        if self._executor is None:
            self._executor = ProcessPoolExecutor(
                max_workers=self.workers, mp_context=mp_context(self.mp_method)
            )
        return self._executor

    def _rebuild_executor(self) -> ProcessPoolExecutor:
        if self._executor is not None:
            # the pool is broken: don't wait on dead workers
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None
        return self._ensure_executor()

    def close(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    def __enter__(self) -> "WorkStealingScheduler":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    # -- scheduling core ------------------------------------------------
    def run(
        self,
        worker_fn: Callable[[Any], Any],
        payloads: list[tuple[int, Any]],
        on_result: Callable[[Any], None] | None = None,
    ) -> SchedulerOutcome:
        """Run every ``(index, payload)`` through ``worker_fn`` in pool
        workers; returns when all are completed or lost.

        ``on_result`` fires in the parent, in completion order.  The
        outcome's ``results`` map is keyed by the supplied indices.
        """
        outcome = SchedulerOutcome()
        if not payloads:
            return outcome
        nslots = min(self.workers, len(payloads))

        # contiguous block split: slot w owns payloads[w*size : ...], the
        # same locality the old imap chunking gave contiguous indices
        deques: list[deque[tuple[int, Any]]] = [deque() for _ in range(nslots)]
        base, rem = divmod(len(payloads), nslots)
        pos = 0
        for w in range(nslots):
            size = base + (1 if w < rem else 0)
            deques[w].extend(payloads[pos:pos + size])
            pos += size

        attempts: dict[int, int] = {}
        inflight: dict[Future, tuple[int, int, Any]] = {}

        obs = self.obs
        lease_counter = steal_counter = lost_counter = None
        if obs is not None:
            lease_counter = obs.counter("service.leases")
            steal_counter = obs.counter("service.steals")
            lost_counter = obs.counter("service.tasks_lost")

        def next_lease(slot: int) -> tuple[int, Any] | None:
            if deques[slot]:
                return deques[slot].popleft()
            # steal from the tail of the victim with the most work left
            victim = max(range(nslots), key=lambda w: len(deques[w]))
            if not deques[victim]:
                return None
            outcome.steals += 1
            if steal_counter is not None:
                steal_counter.inc()
            return deques[victim].pop()

        def lease(slot: int, executor: ProcessPoolExecutor) -> None:
            entry = next_lease(slot)
            if entry is None:
                return
            index, payload = entry
            attempts[index] = attempts.get(index, 0) + 1
            outcome.leases += 1
            if lease_counter is not None:
                lease_counter.inc()
            future = executor.submit(worker_fn, payload)
            inflight[future] = (slot, index, payload)

        executor = self._ensure_executor()
        try:
            for slot in range(nslots):
                lease(slot, executor)
            while inflight:
                done, _ = wait(list(inflight), return_when=FIRST_COMPLETED)
                broken = False
                for future in done:
                    if future not in inflight:
                        continue  # drained by a broken-pool rebuild
                    slot, index, payload = inflight.pop(future)
                    try:
                        value = future.result()
                    except BrokenProcessPool:
                        broken = True
                        # every in-flight task died with the pool; retry
                        # each once, then declare repeat offenders lost
                        casualties = [(slot, index, payload)]
                        casualties.extend(inflight.values())
                        inflight.clear()
                        for c_slot, c_index, c_payload in casualties:
                            if attempts.get(c_index, 0) >= MAX_ATTEMPTS:
                                outcome.lost.append(c_index)
                                if lost_counter is not None:
                                    lost_counter.inc()
                            else:
                                deques[c_slot].appendleft((c_index, c_payload))
                        outcome.rebuilds += 1
                        executor = self._rebuild_executor()
                        for w in range(nslots):
                            lease(w, executor)
                        break
                    outcome.results[index] = value
                    if on_result is not None:
                        on_result(value)
                    lease(slot, executor)
                if broken:
                    continue
        except BaseException:
            # infrastructure failure (pickling error, interrupt): don't
            # leave a half-dead pool behind for the next run
            self.close()
            raise
        outcome.lost.sort()
        return outcome
