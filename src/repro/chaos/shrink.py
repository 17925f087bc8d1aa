"""Delta-debugging shrinker for failing chaos schedules.

Given a schedule that fails at least one oracle, :func:`shrink_schedule`
searches for a *smaller* schedule that still fails the same way:

1. **ddmin over the failure events** — the classic Zeller/Hildebrandt
   minimizing delta debugging on the event list (drop complements, then
   halves, then singletons);
2. **axis simplification** — knock every config axis back to its neutral
   value (one cluster, no jitter, no stagger, no periodic GC,
   epoch-crossing logging on) whenever the failure survives;
3. **scale reduction** — fewer ranks (within the kernel's legal sizes)
   and fewer iterations;
4. **event simplification** — round ``at`` fractions to two decimals,
   anchored deltas to one significant digit, and walk ``after_sends``
   counts down.

Every candidate is verified by actually re-running the trial, and each
verdict is cached by the schedule's JSON key, so the search never pays
twice for the same candidate.  The result carries a ready-to-paste pytest
reproducer (:func:`reproducer_source`) that pins the minimized schedule
and asserts all oracles pass — failing while the bug exists, turning
green once it is fixed.
"""

from __future__ import annotations

import json
import pprint
from dataclasses import dataclass, field, replace
from typing import Any, Callable

from ..apps import KERNELS
from .oracles import ORACLES, TrialResult
from .schedule import FailureSpec, TrialSchedule, with_failures
from .trial import run_trial_schedule

__all__ = ["ShrinkResult", "shrink_schedule", "reproducer_source"]


@dataclass
class ShrinkResult:
    """Outcome of one shrink search."""

    original: TrialSchedule
    minimized: TrialSchedule
    #: oracles the minimized schedule still fails
    failing_oracles: tuple[str, ...]
    #: trial executions spent (cache hits excluded)
    trials: int = 0
    #: human-readable log of each accepted reduction
    history: list[str] = field(default_factory=list)

    @property
    def reproducer(self) -> str:
        return reproducer_source(self.minimized, self.failing_oracles)

    def to_json(self) -> dict[str, Any]:
        return {
            "original": self.original.to_json(),
            "minimized": self.minimized.to_json(),
            "failing_oracles": list(self.failing_oracles),
            "trials": self.trials,
            "history": self.history,
            "reproducer": self.reproducer,
        }


class _Searcher:
    """Cached predicate: does this schedule still fail like the original?"""

    def __init__(self, target_oracles: frozenset[str], max_trials: int,
                 log: Callable[[str], None] | None):
        self.target = target_oracles
        self.max_trials = max_trials
        self.trials = 0
        self.cache: dict[str, bool] = {}
        self.log = log
        # skip the expensive oracles the original didn't need to fail
        self.check_determinism = "determinism" in target_oracles
        self.sanitize = "sanitize" in target_oracles

    def exhausted(self) -> bool:
        return self.trials >= self.max_trials

    def fails(self, schedule: TrialSchedule) -> bool:
        key = json.dumps(schedule.to_json(), sort_keys=True)
        hit = self.cache.get(key)
        if hit is not None:
            return hit
        if self.exhausted():
            return False  # budget gone: treat as "does not reproduce"
        self.trials += 1
        try:
            result = run_trial_schedule(
                schedule, sanitize=self.sanitize,
                check_determinism=self.check_determinism,
            )
            verdict = bool(self.target & set(result.failed_oracles()))
        except Exception:  # noqa: BLE001 — a broken candidate is just "no"
            verdict = False
        self.cache[key] = verdict
        return verdict


def _ddmin_events(sched: TrialSchedule, searcher: _Searcher,
                  note: Callable[[str], None]) -> TrialSchedule:
    """Minimizing delta debugging over the failure-event tuple."""
    events = list(sched.failures)
    granularity = 2
    while len(events) >= 2 and not searcher.exhausted():
        chunk = max(1, len(events) // granularity)
        subsets = [events[i:i + chunk] for i in range(0, len(events), chunk)]
        reduced = False
        for i in range(len(subsets)):
            complement = [e for j, s in enumerate(subsets) for e in s if j != i]
            cand = with_failures(sched, tuple(complement))
            if complement and searcher.fails(cand):
                events = complement
                granularity = max(granularity - 1, 2)
                note(f"ddmin: dropped {len(subsets[i])} event(s), "
                     f"{len(events)} left")
                reduced = True
                break
        if not reduced:
            if granularity >= len(events):
                break
            granularity = min(len(events), granularity * 2)
    return with_failures(sched, tuple(events))


#: (field, neutral value) — axes tried in order; each kept iff the
#: schedule still fails with the axis neutralized
_NEUTRAL_AXES: tuple[tuple[str, Any], ...] = (
    ("gc_frac", 0.0),
    ("checkpoint_jitter", 0.0),
    ("cluster_stagger", 0.0),
    ("rank_stagger", 0.0),
    ("clusters", 1),
    ("log_cross_epoch", True),
    ("checkpoint_seed", 0),
)


def _simplify_axes(sched: TrialSchedule, searcher: _Searcher,
                   note: Callable[[str], None]) -> TrialSchedule:
    for name, neutral in _NEUTRAL_AXES:
        if getattr(sched, name) == neutral or searcher.exhausted():
            continue
        cand = replace(sched, **{name: neutral})
        if searcher.fails(cand):
            sched = cand
            note(f"axis: {name} -> {neutral!r}")
    return sched


def _shrink_scale(sched: TrialSchedule, searcher: _Searcher,
                  note: Callable[[str], None]) -> TrialSchedule:
    # fewer ranks (stay within the kernel's legal sizes; every failure
    # rank must remain valid)
    for n in sorted(KERNELS[sched.kernel].ranks):
        if n >= sched.nprocs or searcher.exhausted():
            break
        if any(f.rank >= n for f in sched.failures):
            continue
        cand = replace(sched, nprocs=n,
                       clusters=min(sched.clusters, n))
        if searcher.fails(cand):
            note(f"scale: nprocs {sched.nprocs} -> {n}")
            sched = cand
            break
    # fewer iterations: halve while it still fails, then nudge down
    for target in (sched.niters // 2, sched.niters // 2,
                   sched.niters - 4, sched.niters - 2):
        target = max(4, target if target else 4)
        if target >= sched.niters or searcher.exhausted():
            continue
        cand = replace(sched, niters=target)
        if searcher.fails(cand):
            note(f"scale: niters {sched.niters} -> {target}")
            sched = cand
    return sched


def _simplify_events(sched: TrialSchedule, searcher: _Searcher,
                     note: Callable[[str], None]) -> TrialSchedule:
    events = list(sched.failures)
    for i, ev in enumerate(events):
        if searcher.exhausted():
            break
        candidates: list[FailureSpec] = []
        if ev.kind == "at":
            candidates.append(replace(ev, frac=round(ev.frac, 2)))
            candidates.append(replace(ev, frac=0.5))
        elif ev.kind == "after_sends":
            for n in (1, 2, 5, 10, ev.nsends // 2):
                if 0 < n < ev.nsends:
                    candidates.append(replace(ev, nsends=n))
        else:
            candidates.append(replace(ev, delta=float(f"{ev.delta:.0e}")))
        for cand_ev in candidates:
            if cand_ev == ev:
                continue
            cand = with_failures(
                sched, tuple(events[:i] + [cand_ev] + events[i + 1:]))
            if searcher.fails(cand):
                note(f"event {i}: {ev.kind} simplified "
                     f"({ev.to_json()} -> {cand_ev.to_json()})")
                events[i] = cand_ev
                sched = cand
                break
    return sched


def shrink_schedule(
    schedule: TrialSchedule,
    result: TrialResult | None = None,
    max_trials: int = 200,
    log: Callable[[str], None] | None = None,
) -> ShrinkResult:
    """Minimize a failing schedule.

    ``result`` (the original trial's verdicts) pins which oracles the
    minimized schedule must keep failing; when omitted the trial is run
    once to find out.  ``max_trials`` bounds the total number of trial
    executions the search may spend.  Raises ``ValueError`` if the
    schedule doesn't fail in the first place.
    """
    if result is None:
        result = run_trial_schedule(schedule)
    failed = tuple(result.failed_oracles())
    if not failed:
        raise ValueError("schedule passes all oracles — nothing to shrink")

    searcher = _Searcher(frozenset(failed), max_trials, log)
    history: list[str] = []

    def note(msg: str) -> None:
        history.append(msg)
        if log is not None:
            log(msg)

    sched = _ddmin_events(schedule, searcher, note)
    sched = _simplify_axes(sched, searcher, note)
    sched = _shrink_scale(sched, searcher, note)
    sched = _simplify_events(sched, searcher, note)
    # a second ddmin pass: axis/scale reduction sometimes unlocks drops
    sched = _ddmin_events(sched, searcher, note)

    # final verification with *all* oracles, so the reported failure set
    # is what a full trial of the minimized schedule actually shows
    final = run_trial_schedule(sched)
    final_failed = tuple(final.failed_oracles()) or failed
    return ShrinkResult(
        original=schedule, minimized=sched,
        failing_oracles=final_failed,
        trials=searcher.trials, history=history,
    )


# ----------------------------------------------------------------------
# Reproducer emission
# ----------------------------------------------------------------------
_REPRO_TEMPLATE = '''\
"""Minimized chaos reproducer (auto-generated by repro.chaos.shrink).

Schedule: {describe}
Failing oracles when generated: {oracles}

This test FAILS while the underlying defect exists and turns green once
it is fixed — paste it under tests/chaos/ to pin the fix.
"""

from repro.chaos.schedule import schedule_from_json
from repro.chaos.trial import run_trial_schedule

SCHEDULE = {schedule_json}


def test_chaos_reproducer():
    result = run_trial_schedule(schedule_from_json(SCHEDULE))
    failed = result.failed_oracles()
    detail = "; ".join(
        f"{{name}}: {{result.detail(name)}}" for name in failed)
    assert result.passed, f"oracles failed: {{detail}}"
'''


def reproducer_source(schedule: TrialSchedule,
                      failing_oracles: tuple[str, ...] = ()) -> str:
    """Ready-to-paste pytest module pinning ``schedule``."""
    payload = pprint.pformat(schedule.to_json(), indent=1, sort_dicts=True)
    oracles = ", ".join(failing_oracles) or "(all passed)"
    assert all(o in ORACLES for o in failing_oracles)
    return _REPRO_TEMPLATE.format(
        describe=schedule.describe(), oracles=oracles,
        schedule_json=payload,
    )
