"""Workload inputs, generated from ``--seed``.

Seed 0 gives exactly the reference shapes (the cells are then
``repro.campaigns.table1_cell`` call for call).  Any other seed gives a
different input *of comparable cost*: the benchmark's steadiness is judged
over runs with different seeds, so a seed may only move what leaves the
amount of work alone.

* cells — the checkpoint schedule (interval, cluster and rank stagger) is
  scaled by up to ±``JITTER`` (15 %) per field.  Checkpoints are free in the
  Table-I configuration (``lightweight``, no I/O model), so the simulated
  run, its event count and the number of SPE snapshots stay the same while
  epochs, logged messages and rollback sets differ.
* ``campaign_grid`` — the campaign ``base_seed`` (task seeds and therefore
  every cache key change; the cells ignore their seed by design).
* ``chaos_mix`` — the order in which the timed units go through
  ``CHAOS_SEED_BANK`` (see there), a blake2b-keyed permutation.
"""

from __future__ import annotations

import hashlib
from typing import Any

__all__ = ["CHAOS_SEED_BANK", "JITTER", "WORKLOADS", "make_input",
           "unit_float"]

#: workload name -> why it exists (BENCHMARK.json repeats these)
WORKLOADS = {
    "cell_cg1024": "Table-I cell CG/1024 ranks: rollback analysis is ~60% "
                   "of the wall, so analysis changes show here",
    "cell_mg256": "Table-I cell MG/256 ranks: ~87% simulation (engine, "
                  "network, coroutines, protocol hooks), ~13% analysis",
    "campaign_grid": "20-cell table1 campaign, 2 workers, cold then warm "
                     "cache: scheduler, serialisation, obs merge, cache",
    "chaos_mix": "chaos campaigns, 4 trials of each of the 6 kernels per "
                 "unit: live recovery, checkpoint restore, replay, oracles",
}

#: relative amplitude of the per-field checkpoint-schedule scaling.  Wide
#: enough that the discrete outcome (which messages cross an epoch) moves
#: for most seeds; the profiled call count of either cell still varied by
#: under 1 % over seeds 0-9.
JITTER = 0.15

#: Chaos campaign seeds whose unit is of one size: of ``range(266)``, those
#: whose six campaigns cost 3.10 s +-4 % in reference-host seconds (median of
#: 5 to 9 fresh-process measurements on the defining commit) and peak at
#: 77-86 MB.  A chaos campaign drawn at random is not an input of comparable
#: size: ten runs that pooled five random seeds each had a quartile distance
#: of 21 % in ``wall_s`` and 7.5 % in ``peak_rss_mb``, and a bound belongs
#: to a metric, not to a workload.  README, "Why the chaos seeds are a
#: bank", has the measurements and the rule; ``baseline/chaos_bank.json``
#: the table.  All 266 seeds pass every oracle.
CHAOS_SEED_BANK = (11, 62, 79, 121, 138, 184, 185)

_CELL = {
    "checkpoint_interval": 6e-5,
    "cluster_stagger": 8e-6,
    "rank_stagger": 2e-7,
    "compute_time": 1e-5,
    "sample_interval": 7e-5,
}

_SHAPES: dict[str, dict[str, Any]] = {
    "cell_cg1024": {"kind": "cell", "kernel": "CG", "ranks": 1024,
                    "clusters": 4, "niters": 2},
    "cell_mg256": {"kind": "cell", "kernel": "MG", "ranks": 256,
                   "clusters": 4, "niters": 5},
    "campaign_grid": {"kind": "campaign",
                      "kernels": ["BT", "CG", "FT", "LU", "MG"],
                      "ranks": [32, 64], "clusters": [2, 4], "niters": 3},
    "chaos_mix": {"kind": "chaos", "trials_per_kernel": 4,
                  "kernels": ["cg", "lu", "pingpong", "reduce", "stencil",
                              "stencil2d"]},
}

#: --smoke: same code paths, seconds instead of minutes
_SMOKE_SHAPES: dict[str, dict[str, Any]] = {
    "cell_cg1024": {"ranks": 64},
    "cell_mg256": {"ranks": 64},
    "campaign_grid": {"kernels": ["CG", "MG"], "ranks": [16]},
    "chaos_mix": {"trials_per_kernel": 1},
}


def unit_float(seed: int, workload: str, field: str) -> float:
    """Deterministic draw in [0, 1) for one (seed, workload, field)."""
    digest = hashlib.blake2b(f"{seed}/{workload}/{field}".encode(),
                             digest_size=8).digest()
    return int.from_bytes(digest, "big") / 2.0**64


def make_input(workload: str, seed: int, smoke: bool = False) -> dict[str, Any]:
    """The plain-data input of one workload at one seed."""
    if workload not in _SHAPES:
        raise ValueError(f"unknown workload {workload!r} "
                         f"(have {', '.join(_SHAPES)})")
    inp = dict(_SHAPES[workload], workload=workload, seed=seed)
    if smoke:
        inp.update(_SMOKE_SHAPES[workload])
    if inp["kind"] == "cell":
        inp.update(_CELL)
        if seed != 0:
            for field in ("checkpoint_interval", "cluster_stagger",
                          "rank_stagger"):
                u = unit_float(seed, workload, field)
                inp[field] *= 1.0 + JITTER * (2.0 * u - 1.0)
    elif inp["kind"] == "campaign":
        inp["base_seed"] = 0 if seed == 0 else int(
            unit_float(seed, workload, "base_seed") * 2**31)
    else:
        # timed unit i runs campaign_seeds[i]: the bank in an order keyed by
        # the seed, so a run of five to eight units pools most of it
        inp["campaign_seeds"] = sorted(
            CHAOS_SEED_BANK,
            key=lambda s: unit_float(seed, workload, f"campaign_seed/{s}"))
        inp["bug"] = ""
    return inp
