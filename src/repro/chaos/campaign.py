"""Seeded chaos campaigns over the sweep executor.

A campaign is ``N`` independent trials, each generated from a per-trial
seed derived with the same keyed-blake2b scheme as every other sweep in
the repo (:func:`repro.sweep.task_seed`), executed inline or across a
process pool with crash isolation, and scored against the five oracles.
Trial ``i`` of campaign seed ``S`` is the same schedule for any worker
count, platform or interpreter invocation — a failing trial is quoted by
``(campaign_seed, index)`` and anyone can replay it.

Failing trials keep their full verdicts, the flight-recorder dump of the
run, and (optionally) a shrunk minimal reproducer; everything lands in a
JSON campaign report suitable for CI artifacts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Callable

from .. import campaigns
from ..sweep import SweepResult, task_seed
from .oracles import ORACLES
from .schedule import schedule_from_json
from .trial import run_trial, trial_schedule

__all__ = ["CampaignReport", "run_campaign", "replay_trial",
           "schedule_for_trial", "score_trials", "shrink_failures"]

#: failing trials retained in full (schedule + verdicts + flight dump);
#: beyond this only the (index, seed, oracles) triple is kept
MAX_FAILURES_KEPT = 25


@dataclass
class CampaignReport:
    """Aggregate outcome of one chaos campaign."""

    seed: int
    trials: int
    workers: int
    passed: int = 0
    failed: int = 0
    #: trials whose *harness* crashed (worker exception, not an oracle)
    errors: int = 0
    #: oracle name -> number of trials that failed it
    oracle_failures: dict[str, int] = field(default_factory=dict)
    #: full records of failing trials (capped at MAX_FAILURES_KEPT)
    failures: list[dict[str, Any]] = field(default_factory=list)
    #: (index, seed, failed-oracle list) for every failing trial
    failure_index: list[dict[str, Any]] = field(default_factory=list)
    #: shrink results for the first few failures (when shrinking is on)
    shrunk: list[dict[str, Any]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.failed == 0 and self.errors == 0

    def summary(self) -> str:
        parts = [f"{self.trials} trials, seed {self.seed}: "
                 f"{self.passed} passed, {self.failed} failed, "
                 f"{self.errors} errored"]
        if self.oracle_failures:
            per = ", ".join(f"{k}={v}"
                            for k, v in sorted(self.oracle_failures.items()))
            parts.append(f"oracle failures: {per}")
        if self.shrunk:
            parts.append(f"{len(self.shrunk)} failure(s) shrunk")
        return "; ".join(parts)

    def tallies(self) -> dict[str, Any]:
        """The verdict counts: the ``campaign_end`` event's fields and
        the head of :meth:`to_json`."""
        return {
            "passed": self.passed,
            "failed": self.failed,
            "errors": self.errors,
            "ok": self.ok,
            "oracle_failures": dict(sorted(self.oracle_failures.items())),
        }

    def to_json(self) -> dict[str, Any]:
        return {
            "seed": self.seed,
            "trials": self.trials,
            "workers": self.workers,
            **self.tallies(),
            "failure_index": self.failure_index,
            "failures": self.failures,
            "shrunk": self.shrunk,
        }

    def save(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh, indent=2)
            fh.write("\n")


def _score(report: CampaignReport, result: SweepResult, obs: Any) -> None:
    """Fold one sweep result into the report and the obs counters."""
    index = result.index
    if not result.ok:
        report.errors += 1
        report.failure_index.append(
            {"index": index, "seed": result.seed, "oracles": ["<harness>"],
             "error": result.error})
        if len(report.failures) < MAX_FAILURES_KEPT:
            report.failures.append(
                {"index": index, "seed": result.seed, "harness_error": True,
                 "error": result.error, "traceback": result.traceback})
        obs.counter("chaos.trials", ("outcome",)).inc(labels=("error",))
        return

    trial = result.value  # TrialResult.to_json() payload
    oracles = trial.get("oracles", {})
    trial_passed = bool(trial.get("passed"))
    obs.counter("chaos.trials", ("outcome",)).inc(
        labels=("pass" if trial_passed else "fail",))
    for name in ORACLES:
        verdict = oracles.get(name)
        if verdict is None:
            continue
        obs.counter("chaos.oracle", ("name", "passed")).inc(
            labels=(name, bool(verdict.get("passed"))))
    if trial_passed:
        report.passed += 1
        return
    report.failed += 1
    failed_names = [n for n in ORACLES
                    if n in oracles and not oracles[n].get("passed")]
    for name in failed_names:
        report.oracle_failures[name] = report.oracle_failures.get(name, 0) + 1
    report.failure_index.append(
        {"index": index, "seed": result.seed, "oracles": failed_names})
    if len(report.failures) < MAX_FAILURES_KEPT:
        report.failures.append(
            {"index": index, "seed": result.seed, **trial})


def score_trials(results: list[SweepResult], seed: int, workers: int,
                 obs: Any) -> CampaignReport:
    """Score a campaign's trial results (task order) into a report and
    the ``chaos.*`` counters of ``obs``."""
    report = CampaignReport(seed=seed, trials=len(results), workers=workers)
    for result in results:
        _score(report, result, obs)
    return report


def shrink_failures(report: CampaignReport, shrink: int) -> None:
    """Delta-debug the first ``shrink`` retained oracle failures of
    ``report`` into ``report.shrunk`` (serial, in-process)."""
    for entry in report.failures[: max(0, shrink)]:
        if entry.get("harness_error") or "schedule" not in entry:
            continue
        from .shrink import shrink_schedule

        schedule = schedule_from_json(entry["schedule"])
        try:
            shrunk = shrink_schedule(schedule)
        except Exception as exc:  # noqa: BLE001 — shrinking is best-effort
            report.shrunk.append(
                {"index": entry["index"], "error": f"shrink failed: {exc!r}"})
            continue
        report.shrunk.append({"index": entry["index"], **shrunk.to_json()})


def run_campaign(
    trials: int,
    *,
    workers: int = 1,
    obs: Any = None,
    on_progress: Callable[[SweepResult], None] | None = None,
    stream: Any = None,
    cache: Any = None,
    scheduler: Any = None,
    service_obs: Any = None,
    **fields: Any,
) -> CampaignReport:
    """Run a chaos campaign of ``trials`` seeded trials.

    The keyword form of a ``kind: chaos`` campaign spec, run by
    :func:`repro.campaigns.run_campaign` like every other campaign:
    ``fields`` are the spec's other fields (``seed``, ``kernels``,
    ``shrink``, ...), listed and defaulted by the ``"chaos"`` row of
    :data:`repro.campaigns.DEFAULTS` and nowhere else.
    ``workers <= 1`` runs inline (bit-identical to a loop); more fans out
    over a process pool with crash isolation — results and the merged
    observability registry are in task order either way.  ``shrink``
    bounds how many failing trials get the delta-debugging treatment
    (0 disables); ``bug`` plants a synthetic defect in *every* trial
    (harness self-test).  A failing trial's record carries the flight
    dump the trial took of its own chaos run, in its worker.  ``stream`` (a
    :class:`repro.obs.stream.ProgressStream`) emits a live JSONL event
    per trial plus campaign begin/end markers, and is closed at the end.
    ``cache`` / ``scheduler`` / ``service_obs`` pass straight through to
    :func:`repro.sweep.run_sweep`: trials are pure functions of
    ``(campaign_seed, index)``, so the content-addressed cache serves
    re-submitted campaigns without re-running trials.
    """
    return campaigns.run_campaign(
        dict(kind="chaos", trials=trials, **fields),
        workers=workers, cache=cache, scheduler=scheduler,
        service_obs=service_obs, on_progress=on_progress, stream=stream,
        obs=obs,
    ).report


def _trial_params(campaign_seed: int, index: int, **fields: Any) -> dict:
    """:func:`run_trial`'s input for trial ``index``, as a campaign with
    these spec fields plans and seeds it (it plans the trials before,
    too)."""
    _, tasks, base_seed, _ = campaigns.plan(
        dict(kind="chaos", trials=index + 1, seed=campaign_seed, **fields))
    task = tasks[index]
    return {**task.params, "seed": task_seed(base_seed, index, task.name)}


def replay_trial(campaign_seed: int, index: int,
                 **fields: Any) -> dict[str, Any]:
    """Re-run exactly one campaign trial by (campaign seed, index).

    Reconstructs the schedule through the same ``task_seed`` derivation
    the campaign used, so the trial quoted in a CI report can be replayed
    locally with nothing but the two integers (and the spec ``fields``
    the campaign set, if any).
    """
    return run_trial(_trial_params(campaign_seed, index, **fields))


def schedule_for_trial(campaign_seed: int, index: int, **fields: Any):
    """The schedule campaign trial ``(campaign_seed, index)`` runs."""
    return trial_schedule(_trial_params(campaign_seed, index, **fields))
