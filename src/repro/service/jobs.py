"""The service's job runner: a campaign run as a plain-data document.

A *campaign spec* (:mod:`repro.campaigns`) is what ``repro submit`` sends
over the wire and what the service queues.  :func:`run_campaign_job`
hands one spec to :func:`repro.campaigns.run_campaign` — the runner the
one-shot CLI uses — synchronously (the server calls it from a worker
thread) and returns a plain-data job document:

* ``summary`` — tallies plus cache/lease accounting and two content
  digests (``results_digest``, ``obs_digest``) that let a client assert
  byte-identity of a warm resubmission against its cold run without
  shipping the full documents;
* ``results`` — the same structured document ``repro sweep --out``
  writes (:func:`repro.sweep.results_document`), or the chaos campaign
  report for ``kind: chaos``;
* ``obs`` — the merged simulation registry's metrics export (JSONL).
  Cache/lease accounting deliberately lands in the *service-level*
  registry, never this one, so ``obs`` is byte-identical between a cold
  run and a 100%-hit re-run.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Callable

from ..campaigns import CAMPAIGN_KINDS, run_campaign, validate_spec

__all__ = ["CAMPAIGN_KINDS", "run_campaign_job", "validate_spec"]


def _digest(text: str) -> str:
    return hashlib.blake2b(text.encode(), digest_size=16).hexdigest()


def run_campaign_job(
    spec: dict[str, Any],
    workers: int = 1,
    cache: Any = None,
    scheduler: Any = None,
    service_obs: Any = None,
    on_event: Callable[[dict[str, Any]], None] | None = None,
    collect_obs: bool = True,
) -> dict[str, Any]:
    """Execute one campaign spec; returns the job document.

    Runs synchronously (the asyncio server offloads it to a thread).
    ``scheduler`` is the resident :class:`repro.sweep.Scheduler` to reuse;
    ``service_obs`` the service-lifetime accounting registry.
    ``on_event`` gets the ``--stream`` progress events as dicts
    (:mod:`repro.obs.stream`), ``campaign_begin`` and ``campaign_end``
    included.
    """
    from ..obs import ProgressStream, dump_metrics
    from ..sweep import results_document

    stream = None
    if on_event is not None:
        def forward(event: dict[str, Any]) -> None:
            # the wire's task_done always says whether the cache served it
            if event["kind"] == "task_done":
                event.setdefault("cached", False)
            on_event(event)

        stream = ProgressStream(forward)

    def leases() -> int:  # the service registry's lifetime count
        return (int(service_obs.get_counter_total("service.leases"))
                if service_obs is not None else 0)

    leases_before = leases()  # a job reports its own, as cache_delta does
    run = run_campaign(
        spec, workers=workers, cache=cache, scheduler=scheduler,
        service_obs=service_obs, collect_obs=collect_obs, stream=stream,
    )
    kind = spec["kind"]
    report = run.report
    if report is not None:  # chaos: trials are scored, not just completed
        results_doc: dict[str, Any] = report.to_json()
        tasks, ok = report.trials, report.passed
        errors = report.failed + report.errors
    else:
        results_doc = results_document(run.results, sweep_name=kind)
        tasks = len(run.results)
        ok = sum(1 for r in run.results if r.ok)
        errors = tasks - ok

    obs_export = dump_metrics(run.registry, "jsonl")
    results_json = json.dumps(results_doc, sort_keys=True,
                              separators=(",", ":"))
    summary = {
        "campaign": kind,
        "tasks": tasks,
        "ok": ok,
        "errors": errors,
        "cache": run.cache_delta,
        "steals_total": 0,  # perfbench reads it; ROADMAP item 4's bench PR drops it
        "leases_total": leases() - leases_before,
        "results_digest": _digest(results_json),
        "obs_digest": _digest(obs_export),
    }
    return {"summary": summary, "results": results_doc, "obs": obs_export}
