"""The process pool under a parallel sweep: one FIFO queue of tasks.

Tasks wait in task order; the pool leases them from the head, at most
``workers`` at a time, and leases the next as each completes, so a slow
task (a 4096-rank Table I row) holds one slot while the others drain.

:class:`concurrent.futures.ProcessPoolExecutor` (unlike
``multiprocessing.Pool``) detects abrupt worker death (``os._exit``, OOM
kill, segfault) as ``BrokenProcessPool``.  The scheduler then rebuilds
the executor and puts every in-flight task back at the head of the queue,
in lease order, for one retry: the crashing task crashes again
deterministically and is *lost*, innocent tasks complete.
:func:`repro.sweep.run_sweep` raises ``RuntimeError: sweep lost results
…`` for lost indices.  A scheduler may serve many runs (the campaign
service keeps one, and its pool, across jobs); :meth:`close` ends it.
"""

from __future__ import annotations

from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Callable

from .executor import _pinned_start_method, mp_context

__all__ = ["Scheduler", "SchedulerOutcome"]

#: attempts per task before it is declared lost (1 initial + 1 retry)
MAX_ATTEMPTS = 2


@dataclass
class SchedulerOutcome:
    """What one :meth:`Scheduler.run` call did."""

    #: task index -> worker-function return value, for completed tasks
    results: dict[int, Any] = field(default_factory=dict)
    #: indices whose worker died on every attempt (hard crash)
    lost: list[int] = field(default_factory=list)
    leases: int = 0
    #: executor rebuilds after a broken pool
    rebuilds: int = 0


class Scheduler:
    """One FIFO queue of tasks over a process pool.

    ``workers`` bounds the number of concurrent leases; ``mp_method`` is
    an explicit multiprocessing start method (``None`` uses the pinned
    repo-wide default from :mod:`repro.sweep.executor` — never the
    silent platform default).
    """

    def __init__(self, workers: int, mp_method: str | None = None):
        self.workers = max(1, int(workers))
        self.mp_method = mp_method or _pinned_start_method()
        self._executor: ProcessPoolExecutor | None = None

    # -- pool lifecycle -------------------------------------------------
    def _ensure_executor(self) -> ProcessPoolExecutor:
        if self._executor is None:
            self._executor = ProcessPoolExecutor(
                max_workers=self.workers, mp_context=mp_context(self.mp_method)
            )
        return self._executor

    def close(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    def __enter__(self) -> "Scheduler":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    # -- scheduling core ------------------------------------------------
    def run(
        self,
        worker_fn: Callable[[Any], Any],
        payloads: list[tuple[int, Any]],
        on_result: Callable[[Any], None] | None = None,
        obs: Any = None,
    ) -> SchedulerOutcome:
        """Run every ``(index, payload)`` through ``worker_fn`` in pool
        workers; returns when all are completed or lost.

        ``on_result`` fires in the parent, in completion order.  The
        outcome's ``results`` map is keyed by the supplied indices.
        ``obs`` (the accounting registry) counts ``service.leases`` and
        ``service.tasks_lost``.
        """
        outcome = SchedulerOutcome()
        if not payloads:
            return outcome
        queue = deque((index, payload, 1) for index, payload in payloads)
        #: future -> (index, payload, attempt), in lease order
        inflight: dict[Future, tuple[int, Any, int]] = {}

        def fill(executor: ProcessPoolExecutor) -> None:
            while queue and len(inflight) < self.workers:
                index, payload, attempt = queue.popleft()
                outcome.leases += 1
                if obs is not None:
                    obs.counter("service.leases").inc()
                future = executor.submit(worker_fn, payload)
                inflight[future] = (index, payload, attempt)

        executor = self._ensure_executor()
        try:
            fill(executor)
            while inflight:
                done, _ = wait(inflight, return_when=FIRST_COMPLETED)
                broken = False
                for future in [f for f in inflight if f in done]:  # lease order
                    try:
                        value = future.result()
                    except BrokenProcessPool:
                        broken = True
                        continue
                    index = inflight.pop(future)[0]
                    outcome.results[index] = value
                    if on_result is not None:
                        on_result(value)
                if broken:
                    # every task still in flight died with the pool: retry
                    # each once, ahead of the queue, then declare repeat
                    # offenders lost
                    retry = []
                    for index, payload, attempt in inflight.values():
                        if attempt < MAX_ATTEMPTS:
                            retry.append((index, payload, attempt + 1))
                            continue
                        outcome.lost.append(index)
                        if obs is not None:
                            obs.counter("service.tasks_lost").inc()
                    inflight.clear()
                    queue.extendleft(reversed(retry))
                    outcome.rebuilds += 1
                    # the pool is broken: don't wait on dead workers
                    executor.shutdown(wait=False, cancel_futures=True)
                    self._executor = None
                    executor = self._ensure_executor()
                fill(executor)
        except BaseException:
            # infrastructure failure (pickling error, interrupt): don't
            # leave a half-dead pool behind for the next run
            self.close()
            raise
        outcome.lost.sort()
        return outcome
