"""Chaos campaign harness: seeded failure-schedule fuzzing with shrinking.

The protocol's unit and property tests pin *known* corner cases; this
package searches for unknown ones.  A campaign draws hundreds of seeded
random failure schedules — varying the app kernel, the protocol's config
axes, and the rank / multiplicity / virtual-time *and* logical placement
of fail-stop failures — runs each against the simulator, and holds every
trial to five oracles (recovery settles, the recovered execution is valid,
the runtime sanitizer stays clean, and a re-run is bit-identical).  A
failing schedule is delta-debugged down to a minimal reproducer emitted as
a ready-to-paste pytest.

Entry points: ``repro chaos`` on the CLI, :func:`run_campaign` in code,
:func:`run_trial_schedule` for a single schedule, :func:`run_schedule`
for its reference and failure runs alone, and :func:`shrink_schedule`
for minimization.  See ``docs/robustness.md``.
"""

from typing import TYPE_CHECKING

from .. import lazy_facade

if TYPE_CHECKING:
    from .campaign import (
        CampaignReport,
        replay_trial,
        run_campaign,
        schedule_for_trial,
    )
    from .oracles import ORACLES, OracleResult, TrialResult
    from .schedule import (
        PLACEMENT_KINDS,
        FailureSpec,
        TrialSchedule,
        generate_schedule,
        schedule_from_json,
        with_failures,
    )
    from .shrink import ShrinkResult, reproducer_source, shrink_schedule
    from .trial import SYNTHETIC_BUGS, run_schedule, run_trial, run_trial_schedule
else:
    __getattr__, __dir__, __all__ = lazy_facade(globals(), {
        "campaign": "CampaignReport replay_trial run_campaign "
                    "schedule_for_trial",
        "oracles": "ORACLES OracleResult TrialResult",
        "schedule": "PLACEMENT_KINDS FailureSpec TrialSchedule "
                    "generate_schedule schedule_from_json with_failures",
        "shrink": "ShrinkResult reproducer_source shrink_schedule",
        "trial": "SYNTHETIC_BUGS run_schedule run_trial run_trial_schedule",
    })
