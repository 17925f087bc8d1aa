"""What a finished world keeps: a per-rank byte ratchet on a Table I cell,
and the checkpoint schedule that builds no RNG it never draws from."""

import gc
import tracemalloc

from repro.analysis.rollback import SpeSampler, rollback_analysis
from repro.campaigns import table1_setup
from repro.core.checkpoint import CheckpointSchedule

from .analysis.live_cell import live_world

#: tracemalloc bytes a finished 256-rank CG cell (4 clusters, 4
#: iterations) keeps per rank, as landed on CPython 3.11 (27,900 before
#: the lazy schedule RNG, slotted processes and shared SPE snapshots);
#: the ratchet allows 10 % on top
KEPT_PER_RANK = 18_900
RANKS = 256


def _finished_cell(ranks: int):
    """Build, sample and run a Table I cell and analyse its snapshots, as
    perfbench does; returns everything it keeps alive."""
    cell = table1_setup({"kernel": "CG", "ranks": ranks, "clusters": 4,
                         "niters": 4})
    period = cell.pop("period")
    world, controller = live_world(**cell)
    sampler = SpeSampler(controller, period)
    sampler.arm()
    world.launch()
    world.run()
    if not sampler.snapshots:
        sampler.take()
    return world, controller, sampler, rollback_analysis(sampler.snapshots, ranks)


def test_a_finished_cell_keeps_no_more_bytes_per_rank():
    _finished_cell(16)  # lazy imports and first-use caches land here
    gc.collect()
    tracemalloc.start()
    try:
        kept = _finished_cell(RANKS)
        gc.collect()
        traced, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    per_rank = traced / RANKS
    assert kept[3].trials == len(kept[2].snapshots) * RANKS
    assert per_rank <= 1.1 * KEPT_PER_RANK, (
        f"a finished {RANKS}-rank cell keeps {per_rank:.0f} B per rank "
        f"(ratchet {KEPT_PER_RANK} + 10 %)")


# ----------------------------------------------------------------------
# Checkpoint schedules
# ----------------------------------------------------------------------
def _due_times(schedule: CheckpointSchedule, n: int) -> list[float]:
    out = []
    for _ in range(n):
        out.append(schedule._next_due)
        schedule.mark_taken(schedule._next_due)
    return out


def test_an_unjittered_schedule_holds_no_rng():
    s = CheckpointSchedule(interval=6e-5, offset=8e-6, seed=3)
    assert s._rng is None
    want, due = [], 8e-6
    for _ in range(4):
        due += 6e-5
        want.append(due)
    assert _due_times(s, 4) == want
    never = CheckpointSchedule(interval=None)
    assert never._rng is None and not never.due(1e12)


def test_a_jittered_schedule_draws_what_it_always_drew():
    s = CheckpointSchedule(interval=10.0, offset=1.0, jitter=0.5, seed=7)
    assert s._rng is not None
    assert _due_times(s, 8) == [
        9.238327648331623, 15.746819387576643, 27.25616411797518,
        32.98052698465061, 43.3393470277175, 51.996236196843356,
        57.57622544459042, 67.65058277648463,
    ]
