"""Rank-scaling benchmark: events/s and peak RSS at 256 / 1024 / 4096 /
16384 ranks.

Each size runs one *quick* Table I cell (CG, 4 clusters, 4 iterations —
the same cell the CI large-scale smoke drives, as
:func:`repro.campaigns.table1_setup` defines it, timing the simulation
and the analysis apart) in a fresh subprocess, so
the recorded peak RSS is that size's own footprint rather than the
monotone maximum across the sweep.  The artefact ``results/BENCH_scale.json``
records, per size: wall seconds, engine events dispatched, events/s,
messages sent, peak RSS, and bytes of RSS per rank — the numbers behind
the "Scaling to thousands of ranks" section of docs/performance.md.
``analysis_wall_s`` is the median of three runs of the analysis (a single
run is now short enough to sit inside the host's noise, and two gates
below compare it); ``wall_s`` is the simulation plus that.

The 4096-rank cell is the scaling acceptance: a quick Table I sweep at 4K
ranks completes in well under two minutes (asserted < 90 s here, and the
16384-rank cell — 3.7 M events, the demonstration one bucket per instant
made affordable — is held to the same 90 s), its
offline rollback analysis costs no more than the simulation it analyses,
and that analysis grows near-linearly from 1024 to 4096 ranks (log-log
exponent <= 1.3) — the all-failures closure pass of
``repro.analysis.rollback``, one reachability pass per SPE snapshot.

Three more gates hold the simulation itself to scale, each a ratio or a
footprint, so none depends on how fast the host is: the per-event cost at
4096 ranks stays within 1.3x of the cost at 1024 (the work per event does
not grow with the world; the collector walking a growing heap did — the
4096-rank cell runs twice and the faster run counts, a busy host only
ever slows a run down), the
4096-rank cell peaks at <= 162 MB, and its RSS per rank is no more than
1.1x the 1024-rank cell's (no per-pair table grows with the square of the
ranks any more, and a cell keeps no per-message sequence log: nothing
reads it, so nothing arms ``record_sequences``).
"""

import json
import math
import os
import subprocess
import sys

import pytest

from conftest import emit_json

RANKS = [256, 1024, 4096, 16384]
NITERS = 4
CLUSTERS = 4

_RUNNER = r"""
import json, resource, sys, time
from dataclasses import replace
from repro.campaigns import table1_setup
from repro.core import build_ft_world
from repro.analysis.rollback import SpeSampler, rollback_analysis

nprocs = int(sys.argv[1])
cell = table1_setup({"kernel": "CG", "ranks": nprocs, "niters": int(sys.argv[2]),
                     "clusters": int(sys.argv[3])})
period = cell.pop("period")
cell["config"] = replace(cell["config"], lightweight=True, retain_payloads=False)
t0 = time.perf_counter()
world, controller = build_ft_world(**cell)
sampler = SpeSampler(controller, period)
sampler.arm()
world.launch()
world.run()
t_sim = time.perf_counter() - t0
if not sampler.snapshots:
    sampler.take()
analysis_walls = []
for _ in range(3):
    t1 = time.perf_counter()
    rb = rollback_analysis(sampler.snapshots, nprocs)
    analysis_walls.append(time.perf_counter() - t1)
t_analysis = sorted(analysis_walls)[1]
wall = t_sim + t_analysis
maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(json.dumps({
    "ranks": nprocs,
    "wall_s": round(wall, 3),
    "sim_wall_s": round(t_sim, 3),
    "analysis_wall_s": round(t_analysis, 3),
    "events_dispatched": world.engine.events_dispatched,
    "events_per_s": round(world.engine.events_dispatched / t_sim),
    "messages_sent": world.network.messages_sent,
    "snapshots": len(sampler.snapshots),
    "pct_rollback": round(rb.percent, 2),
    "peak_rss_mb": round(maxrss_kb / 1024, 1),
    "rss_bytes_per_rank": round(maxrss_kb * 1024 / nprocs),
}))
"""


def _run_cell(nprocs: int) -> dict:
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "src")
    env["PYTHONPATH"] = src
    out = subprocess.run(
        [sys.executable, "-c", _RUNNER, str(nprocs), str(NITERS), str(CLUSTERS)],
        capture_output=True, text=True, env=env, timeout=900, check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def scaling_results():
    """``{ranks: row}`` of one cell per size."""
    results = {p: _run_cell(p) for p in RANKS}
    # the event-rate gate divides two one-shot walls, and a busy host only
    # ever slows a run down: the 4096-rank cell runs twice and the gate
    # takes the faster
    results[4096]["events_per_s_rerun"] = _run_cell(4096)["events_per_s"]
    emit_json("BENCH_scale.json", {
        "kernel": "CG",
        "niters": NITERS,
        "clusters": CLUSTERS,
        "sizes": {str(p): r for p, r in results.items()},
    })
    return results


def test_scaling_sweep_records_artifact(scaling_results):
    assert [r["ranks"] for r in scaling_results.values()] == RANKS
    for r in scaling_results.values():
        assert r["events_dispatched"] > 0
        assert r["peak_rss_mb"] > 0


@pytest.mark.parametrize("ranks", [4096, 16384])
def test_quick_table1_at_scale_completes_in_minutes(scaling_results, ranks):
    """The scaling acceptance: a 4K-rank quick Table I cell — full
    protocol stack, SPE sampling, offline rollback analysis — in minutes,
    not hours; and so does the 16K-rank one."""
    big = scaling_results[ranks]
    assert big["wall_s"] < 90, f"{ranks}-rank cell took {big['wall_s']}s"


def test_analysis_is_cheaper_than_the_simulation_it_analyses(scaling_results):
    big = scaling_results[4096]
    assert big["analysis_wall_s"] <= big["sim_wall_s"], (
        f"analysis {big['analysis_wall_s']}s > simulation {big['sim_wall_s']}s"
    )


def test_analysis_grows_near_linearly_1024_to_4096(scaling_results):
    """One closure pass per snapshot is O((nodes + edges) * p/64) word
    operations; the p per-failure fix-points it replaced grew ~32x per 4x
    ranks (exponent 2.5)."""
    mid, big = scaling_results[1024], scaling_results[4096]
    exponent = (math.log(big["analysis_wall_s"] / mid["analysis_wall_s"])
                / math.log(big["ranks"] / mid["ranks"]))
    assert exponent <= 1.3, (
        f"analysis {mid['analysis_wall_s']}s @1024 -> "
        f"{big['analysis_wall_s']}s @4096: exponent {exponent:.2f}"
    )


def test_event_rate_holds_from_1024_to_4096(scaling_results):
    """The work per event does not depend on the world's size: with the
    collector paused for the dispatch loop and no dense per-pair table to
    walk, events/s at 4096 ranks stays within 1.3x of 1024's (it was 1.8x
    slower)."""
    mid, big = scaling_results[1024], scaling_results[4096]
    big_rate = max(big["events_per_s"], big["events_per_s_rerun"])
    assert big_rate >= mid["events_per_s"] / 1.3, (
        f"{big['events_per_s']} / {big['events_per_s_rerun']} events/s "
        f"@4096 vs {mid['events_per_s']} @1024"
    )


def test_4096_rank_footprint(scaling_results):
    """Sparse tracer rows: no structure grows with the square of the rank
    count, an unarmed world retains nothing per message, and a rank keeps
    no unused RNG, no per-instance hook dict and no unchanged SPE entry
    twice, so the 4096-rank cell fits in 162 MB, its landed peak + 15 %
    (188 MB with a schedule RNG per rank and unshared snapshots, 252 MB
    with the send / deliver log, 506 MB with the dense per-pair matrices)
    and costs no more RSS per rank than the 1024-rank cell, give or take
    10 %."""
    mid, big = scaling_results[1024], scaling_results[4096]
    assert big["peak_rss_mb"] <= 162, f"4096-rank peak RSS {big['peak_rss_mb']} MB"
    assert big["rss_bytes_per_rank"] <= 1.1 * mid["rss_bytes_per_rank"], (
        f"{big['rss_bytes_per_rank']} B/rank @4096 vs "
        f"{mid['rss_bytes_per_rank']} @1024"
    )


def test_memory_scales_subquadratically(scaling_results):
    """Flat tables + slotted records: growing ranks 16x must not grow
    peak RSS anywhere near 256x (quadratic would); allow 32x headroom
    over linear for index overhead."""
    small, big = scaling_results[256], scaling_results[4096]
    ratio = big["peak_rss_mb"] / small["peak_rss_mb"]
    assert ratio < 32, f"peak RSS grew {ratio:.0f}x for 16x ranks"
