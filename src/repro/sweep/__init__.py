"""Parallel scenario sweeps (``repro.sweep``).

Fans independent simulation runs across worker processes.  Every run is a
self-contained deterministic simulation, so a sweep parallelises trivially;
the executor adds the operational pieces: per-run deterministic seeds,
crash isolation (a failing run yields an error *result*, not a dead sweep),
ordered structured results, and progress reporting through
:mod:`repro.obs`.  :mod:`~repro.sweep.scheduler` is the process pool under
a parallel sweep: one FIFO queue of tasks, leased in task order, with
hard-crash detection and one retry.  The campaign service hands
:func:`run_sweep` a persistent one; this package imports nothing of
:mod:`repro.service`.

With ``workers <= 1`` the executor degrades to a plain in-process loop —
the results (and any output derived from them) are byte-identical to code
that never imported this module, which is what lets the CLI bolt
``--workers`` onto existing commands without re-validating their output.
"""

from typing import TYPE_CHECKING

from .. import lazy_facade

if TYPE_CHECKING:
    from .executor import (
        MP_START_METHOD,
        SweepResult,
        SweepTask,
        mp_context,
        results_document,
        run_sweep,
        save_results,
        task_seed,
    )
    from .scheduler import Scheduler, SchedulerOutcome
else:
    __getattr__, __dir__, __all__ = lazy_facade(globals(), {
        "executor": "MP_START_METHOD SweepResult SweepTask mp_context "
                    "results_document run_sweep save_results task_seed",
        "scheduler": "Scheduler SchedulerOutcome",
    })
