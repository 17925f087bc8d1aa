"""Multiprocessing sweep executor.

A *sweep* is a list of independent tasks, each a call of one module-level
function with a parameter mapping.  The executor runs them sequentially
(``workers <= 1``) or across a process pool, and always returns results in
task order, so downstream consumers (tables, JSON artefacts) are
independent of scheduling.

Determinism
-----------
Each task receives a ``seed`` derived from ``(base_seed, index, name)``
with :func:`task_seed`, which uses a keyed blake2b digest — stable across
processes and interpreter invocations (unlike ``hash()``, which is salted
per process).  Tasks that need randomness must take it from this seed.

The multiprocessing start method is pinned explicitly
(:data:`MP_START_METHOD`): results and worker-global state must never
depend on the *platform default* silently flipping between ``fork`` and
``spawn``.  The pin prefers ``fork`` where available (cheap workers) and
is overridable with ``REPRO_MP_START_METHOD``; the cache-key path is
asserted fork/spawn-invariant by the service tests.

Crash isolation
---------------
The task function runs inside a try/except *in the worker*; an exception
produces a ``status="error"`` :class:`SweepResult` carrying the formatted
traceback while the rest of the sweep proceeds.  A worker that dies
*without* returning (``os._exit``, OOM kill, segfault) is detected by the
pool (:mod:`repro.sweep.scheduler`), retried once in a fresh pool, and —
if it crashes again — reported by raising ``RuntimeError: sweep lost
results for task indices [...]`` after the surviving tasks complete.

Result caching
--------------
``run_sweep(..., cache=ResultCache(...))`` consults the content-addressed
result cache (:mod:`repro.service.cache`) before executing: tasks are
pure functions of (code, seed, params), so a hit returns the stored
:class:`SweepResult` — byte-identical value, duration and obs snapshot —
and the merged registry/exports are indistinguishable from a cold run.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import time
import traceback
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Iterable, Sequence

from ..errors import ConfigError

__all__ = [
    "MP_START_METHOD",
    "SweepTask",
    "SweepResult",
    "mp_context",
    "results_document",
    "run_sweep",
    "save_results",
    "task_seed",
]


@functools.cache
def _pinned_start_method() -> str:
    """Explicit multiprocessing start method for every pool in the repo.

    ``fork`` where the platform offers it (cheap workers, shared imports),
    ``spawn`` otherwise — chosen *here*, once, rather than inherited from
    ``multiprocessing``'s platform default, so a Python upgrade flipping
    the default cannot silently change worker-global state semantics.
    ``REPRO_MP_START_METHOD`` overrides; a value this platform does not
    offer is a :class:`~repro.errors.ConfigError`.  Resolved on first use:
    only a pool needs :mod:`multiprocessing`.
    """
    import multiprocessing

    methods = multiprocessing.get_all_start_methods()
    override = os.environ.get("REPRO_MP_START_METHOD")
    if not override:
        return "fork" if "fork" in methods else "spawn"
    if override not in methods:
        raise ConfigError(f"REPRO_MP_START_METHOD={override!r} is not a start "
                          f"method of this platform (have {', '.join(methods)})")
    return override


if TYPE_CHECKING:
    MP_START_METHOD: str
else:
    def __getattr__(name: str) -> str:
        """``MP_START_METHOD``, resolved by :func:`_pinned_start_method`."""
        if name == "MP_START_METHOD":
            return _pinned_start_method()
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def mp_context(method: str | None = None):
    """The pinned multiprocessing context (never the platform default)."""
    import multiprocessing

    return multiprocessing.get_context(method or _pinned_start_method())


def task_seed(base_seed: int, index: int, name: str) -> int:
    """Deterministic 63-bit per-task seed.

    Stable across processes, platforms and ``PYTHONHASHSEED`` values; two
    sweeps with the same ``base_seed`` and task list see identical seeds
    regardless of worker count or scheduling.
    """
    digest = hashlib.blake2b(
        f"{base_seed}:{index}:{name}".encode(), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big") & (2**63 - 1)


@dataclass(frozen=True)
class SweepTask:
    """One unit of work: ``fn(params)`` under a deterministic seed.

    ``params`` must be picklable (it crosses the process boundary); the
    executor injects ``seed`` into a copy of ``params`` before the call, so
    task functions take a single mapping argument.
    """

    name: str
    params: dict[str, Any] = field(default_factory=dict)


@dataclass
class SweepResult:
    """Outcome of one task, in task order.

    ``status`` is ``"ok"`` or ``"error"``; an error result carries the
    exception text and formatted traceback instead of a value.  ``duration``
    is host wall-clock (informational only — it varies between runs and
    must not feed any determinism-sensitive consumer).
    """

    index: int
    name: str
    status: str
    value: Any = None
    error: str | None = None
    traceback: str | None = None
    duration: float = 0.0
    seed: int = 0
    params: dict[str, Any] = field(default_factory=dict)
    #: observability snapshot of the task's private registry (plain data,
    #: crosses the process boundary; merged by run_sweep, not serialised
    #: into to_json)
    obs: dict[str, Any] | None = None
    #: True when this result was served by the content-addressed cache.
    #: Deliberately *not* serialised by to_json: a warm run's exported
    #: documents must be byte-identical to the cold run that filled the
    #: cache (the duration carried here is the cold run's, for the same
    #: reason).
    cached: bool = False

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def to_json(self) -> dict[str, Any]:
        out = {
            "index": self.index,
            "name": self.name,
            "status": self.status,
            "seed": self.seed,
            "duration_s": round(self.duration, 6),
            "params": _jsonable(self.params),
        }
        if self.status == "ok":
            out["value"] = _jsonable(self.value)
        else:
            out["error"] = self.error
            out["traceback"] = self.traceback
        return out


def _jsonable(value: Any, strict: bool = False) -> Any:
    """Conversion to JSON-serialisable data.

    Dict keys are stringified; two keys that stringify identically (``1``
    and ``"1"``, ``None`` and ``"None"``) used to silently merge with
    last-writer-wins.  Now the collision is *detected*: the first key
    keeps the plain form and later colliders are disambiguated with a
    ``#<typename>`` (then ``.2``, ``.3`` …) suffix — deterministically,
    since dict iteration order is insertion order.  ``strict=True``
    raises instead (cache keys must refuse ambiguity), and also rejects
    the lossy ``repr()`` fallback for unknown objects (reprs can embed
    memory addresses).
    """
    if isinstance(value, dict):
        out: dict[str, Any] = {}
        for k, v in value.items():
            s = str(k)
            if s in out:
                if strict:
                    raise ValueError(
                        f"dict keys collide after stringification: {k!r} "
                        f"also maps to {s!r}")
                base = f"{s}#{type(k).__name__}"
                s, n = base, 2
                while s in out:
                    s = f"{base}.{n}"
                    n += 1
            out[s] = _jsonable(v, strict=strict)
        return out
    if isinstance(value, (list, tuple)):
        return [_jsonable(v, strict=strict) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if hasattr(value, "to_json"):
        return _jsonable(value.to_json(), strict=strict)
    if hasattr(value, "_asdict"):
        return _jsonable(value._asdict(), strict=strict)
    if strict:
        raise ValueError(
            f"cannot canonicalize {type(value).__name__!r} value "
            f"(repr fallback is not content-stable)")
    return repr(value)


def _execute(fn: Callable[[dict[str, Any]], Any], task: SweepTask,
             index: int, seed: int, collect_obs: bool = False,
             timeseries: float | None = None) -> SweepResult:
    """Run one task with crash isolation (used in-process and in workers).

    With ``collect_obs`` the task gets a private ``MetricsRegistry`` under
    ``params["obs"]`` and its plain-data snapshot rides back on the result —
    the same path inline and across the pool, so merged observability is
    shape-identical regardless of worker count.  ``timeseries`` arms the
    task registry's virtual-time series recorder at that interval.  The
    registry records no flight stream, and a registry snapshot carries
    none whatever the task turned on: a reader of its own stream (a
    failing chaos trial's dump) reads it before returning.
    """
    params = dict(task.params)
    params["seed"] = seed
    registry = None
    if collect_obs:
        from ..obs import MetricsRegistry

        registry = MetricsRegistry(flight=False,
                                   timeseries_interval=timeseries)
        params["obs"] = registry
    # host wall-clock is allowed here: SweepResult.duration is documented
    # as informational-only and never feeds a determinism-sensitive path
    t0 = time.perf_counter()  # repro: noqa[RPD002]
    try:
        result = SweepResult(index=index, name=task.name, status="ok",
                             value=fn(params), seed=seed, params=task.params)
    except Exception as exc:  # noqa: BLE001 — isolation is the point
        result = SweepResult(
            index=index, name=task.name, status="error",
            error=f"{type(exc).__name__}: {exc}",
            traceback=traceback.format_exc(), seed=seed, params=task.params)
    if registry is not None:
        result.obs = registry.snapshot()
    result.duration = time.perf_counter() - t0  # repro: noqa[RPD002]
    return result


def _worker(payload: tuple) -> SweepResult:
    return _execute(*payload)


def run_sweep(
    fn: Callable[[dict[str, Any]], Any],
    tasks: Sequence[SweepTask] | Iterable[SweepTask],
    workers: int = 1,
    base_seed: int = 0,
    obs: Any = None,
    on_progress: Callable[[SweepResult], None] | None = None,
    collect_obs: bool = False,
    timeseries: float | None = None,
    cache: Any = None,
    scheduler: Any = None,
    service_obs: Any = None,
) -> list[SweepResult]:
    """Run every task through ``fn``; returns results in task order.

    Parameters
    ----------
    fn:
        Module-level function of one parameter mapping (must be picklable
        for ``workers > 1``).  Receives the task's ``params`` plus a
        ``seed`` entry.
    workers:
        ``<= 1`` runs inline in this process — bit-identical to a plain
        loop, no multiprocessing machinery touched.  Higher values fan out
        over a :class:`~repro.sweep.Scheduler` (capped at the task count).
    obs:
        Optional :class:`repro.obs.MetricsRegistry`; progress lands in the
        ``sweep.*`` counters and an event per completed task.
    on_progress:
        Callback invoked in the parent with each completed result (cache
        hits first in task order, then executed tasks in completion
        order, which under parallel execution is not task order).
    collect_obs:
        Give every task a private registry via ``params["obs"]`` and ship
        its metrics snapshot back on the result (never a flight stream:
        see :func:`_execute`).  When ``obs`` is also given, the
        snapshots are merged into it **in task order** after the sweep, so
        the merged registry is identical for any worker count.
    timeseries:
        With ``collect_obs``, sample each task's instruments into
        virtual-time series at this interval (virtual seconds); series
        merge into ``obs`` in task order, byte-identical for any worker
        count.
    cache:
        Optional :class:`repro.service.ResultCache`.  Tasks whose content
        address is already stored return the cached result (marked
        ``cached=True``); misses execute and are stored.
    scheduler:
        Optional :class:`repro.sweep.Scheduler` to reuse (a resident
        service keeps one pool across jobs).  When given, its worker
        count wins over ``workers``.
    service_obs:
        Registry for *service accounting*: ``service.cache`` hit/miss and
        ``service.leases``/``service.tasks_lost`` counters.  Kept
        separate from ``obs`` so the merged simulation registry exports
        stay byte-identical between a cold run and a cache-warm re-run
        (hit/miss tallies necessarily differ between the two).  ``None``
        disables accounting counters (cache objects still tally their own
        :meth:`stats`).
    """
    tasks = list(tasks)
    seeds = [task_seed(base_seed, i, t.name) for i, t in enumerate(tasks)]

    def _note(result: SweepResult) -> None:
        if obs is not None:
            obs.counter("sweep.tasks_completed", ("status",)).inc(
                labels=(result.status,)
            )
        if on_progress is not None:
            on_progress(result)

    def _merge_worker_obs(results: list[SweepResult]) -> None:
        # task order, not completion order: merge order is part of the
        # determinism contract (float sums add, time series concatenate)
        for result in results:
            if obs is not None and result.obs:
                obs.merge(result.obs)

    results_by_index: list[SweepResult | None] = [None] * len(tasks)
    keys: list[str | None] = [None] * len(tasks)
    pending = list(range(len(tasks)))

    # --- cache probe: hits short-circuit, in task order ---------------
    if cache is not None:
        cache_counter = (service_obs.counter("service.cache", ("outcome",))
                         if service_obs is not None else None)
        pending = []
        for i, task in enumerate(tasks):
            keys[i] = cache.key_for(fn, task.params, seeds[i],
                                    collect_obs=collect_obs,
                                    timeseries=timeseries)
            hit = cache.get(keys[i]) if keys[i] is not None else None
            if hit is not None:
                hit.index, hit.name, hit.cached = i, task.name, True
                results_by_index[i] = hit
                if cache_counter is not None:
                    cache_counter.inc(labels=("hit",))
                _note(hit)
            else:
                pending.append(i)
                if cache_counter is not None:
                    cache_counter.inc(labels=("miss",))

    def _store(result: SweepResult) -> None:
        if cache is not None and keys[result.index] is not None:
            cache.put(keys[result.index], result)

    # --- execute the misses -------------------------------------------
    nworkers = scheduler.workers if scheduler is not None else workers
    if pending and (nworkers <= 1 or len(pending) <= 1):
        for i in pending:
            result = _execute(fn, tasks[i], i, seeds[i], collect_obs,
                              timeseries)
            results_by_index[i] = result
            _store(result)
            _note(result)
    elif pending:
        from .scheduler import Scheduler

        payloads = [
            (i, (fn, tasks[i], i, seeds[i], collect_obs, timeseries))
            for i in pending
        ]

        def on_result(result: SweepResult) -> None:
            results_by_index[result.index] = result
            _store(result)
            _note(result)

        own = scheduler is None
        sched = scheduler if scheduler is not None else Scheduler(
            min(workers, len(pending)))
        try:
            outcome = sched.run(_worker, payloads, on_result=on_result,
                                obs=service_obs)
        finally:
            if own:
                sched.close()
        if outcome.lost:  # a worker died twice without returning
            raise RuntimeError(
                f"sweep lost results for task indices {outcome.lost}")

    missing = [i for i, r in enumerate(results_by_index) if r is None]
    if missing:  # defensive: the scheduler already accounts for losses
        raise RuntimeError(f"sweep lost results for task indices {missing}")
    _merge_worker_obs(results_by_index)  # type: ignore[arg-type]
    return results_by_index  # type: ignore[return-value]


#: top-level keys of a results document; extras live under "extra"
RESERVED_DOCUMENT_KEYS = frozenset(
    {"sweep", "tasks", "ok", "errors", "results", "extra"})


def results_document(
    results: Sequence[SweepResult],
    sweep_name: str = "sweep",
    extra: dict[str, Any] | None = None,
) -> dict[str, Any]:
    """A sweep's results as one structured JSON-ready document.

    ``extra`` entries are nested under the document's ``"extra"`` key —
    they used to be merged into the top level, where a key like
    ``"results"`` or ``"ok"`` would silently clobber the document's own
    fields."""
    doc: dict[str, Any] = {
        "sweep": sweep_name,
        "tasks": len(results),
        "ok": sum(1 for r in results if r.ok),
        "errors": sum(1 for r in results if not r.ok),
        "results": [r.to_json() for r in results],
    }
    if extra:
        doc["extra"] = _jsonable(extra)
    return doc


def save_results(
    path: str,
    results: Sequence[SweepResult],
    sweep_name: str = "sweep",
    extra: dict[str, Any] | None = None,
) -> None:
    """Write a sweep's results as one structured JSON document."""
    with open(path, "w") as fh:
        json.dump(results_document(results, sweep_name, extra), fh,
                  indent=1, sort_keys=False)
        fh.write("\n")
