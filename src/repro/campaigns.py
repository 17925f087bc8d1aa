"""Campaigns: what each kind computes, and the one way to run it.

A *campaign spec* is a plain JSON mapping — ``{"kind": "table1", ...}`` —
and the only description of a campaign there is: the one-shot commands
(``repro table1``, ``repro sweep``, ``repro chaos``) build one from their
flags, ``repro submit ... KIND`` builds one from the same flags and sends
it over the wire, and the campaign service queues it.  This module
decides what a spec means:

* :data:`DEFAULTS` — per kind, every accepted field and its default
  (flags left unset on either door fall through to these);
* :func:`plan` — the task function, the task list, the base seed and the
  kernel classes a spec runs;
* :func:`run_campaign` — the one runner: registry, ``--stream``
  begin/end events, the :func:`repro.sweep.run_sweep` call and, for
  chaos, scoring and shrinking.  Front-ends format what it returns.

So a campaign computes the same cells whichever door it came in
through — and the content-addressed result cache addresses them
identically.

Every task function here is module-level (sweeps pickle them into
workers) and a pure function of ``(seed, params)``.
"""

from __future__ import annotations

import random
from contextlib import closing
from itertools import groupby
from typing import Any, Callable, NamedTuple, Sequence

from .analysis import compare_executions
from .analysis.rollback import measure_rollback, record_trace, rollback_analysis, trace_cell
from .apps import CHAOS_POOL, KERNELS, TABLE1_KERNELS, Stencil2D
from .core import ProtocolConfig, build_ft_world
from .core.clustering import block_clusters
from .errors import ConfigError
from .obs import MetricsRegistry, ProgressStream, stream_progress
from .sweep import SweepTask, run_sweep

__all__ = [
    "CAMPAIGN_KINDS",
    "DEFAULTS",
    "CampaignRun",
    "failure_scenario",
    "failure_tasks",
    "plan",
    "run_campaign",
    "selftest_cell",
    "selftest_tasks",
    "stencil_scenario",
    "table1_cell",
    "table1_rows",
    "table1_setup",
    "table1_tasks",
    "validate_spec",
]


# ----------------------------------------------------------------------
# Table I grid
# ----------------------------------------------------------------------
def table1_setup(params: dict) -> dict[str, Any]:
    """One Table I cell — ``kernel`` at ``ranks`` in ``clusters`` blocks,
    ``niters`` iterations — as :func:`~repro.analysis.rollback.measure_rollback`
    arguments; the only statement of a cell."""
    nprocs, ncl, niters = params["ranks"], params["clusters"], params["niters"]
    cls = TABLE1_KERNELS[params["kernel"]]
    factory = lambda r, s: cls(r, s, niters=niters, compute_time=1e-5)
    config = ProtocolConfig(
        checkpoint_interval=6e-5,
        cluster_of=block_clusters(nprocs, ncl),
        cluster_stagger=8e-6, rank_stagger=2e-7,
        lightweight=True, retain_payloads=False,
    )
    return {"nprocs": nprocs, "program_factory": factory, "config": config,
            "period": 7e-5, "copy_payloads": False}


def table1_cell(params: dict) -> dict:
    """Compute one Table I cell; module-level so sweeps can pickle it.

    The simulation is fully deterministic — the sweep-injected ``seed``
    entry is deliberately unused, so a cell's numbers never depend on
    worker count or scheduling.
    """
    log, _, rb = measure_rollback(**table1_setup(params), obs=params.get("obs"))
    return _table1_row(params, params["clusters"], log, rb)


def _table1_row(params: dict, clusters: int, log: dict, rb: Any) -> dict:
    return {"kernel": params["kernel"], "ranks": params["ranks"],
            "clusters": clusters,
            "pct_log": 100 * log["log_fraction"], "pct_rollback": rb.percent}


def table1_rows(params: dict) -> list[dict]:
    """:func:`table1_cell`'s rows of one ``(kernel, ranks)`` for each of
    ``params["clusters"]``, derived from one recorded simulation: the
    cells differ only in policy (:func:`~repro.analysis.rollback.trace_cell`)."""
    obs = params.get("obs")
    setups = [table1_setup({**params, "clusters": ncl})
              for ncl in params["clusters"]]
    trace = record_trace(obs=obs, **{k: v for k, v in setups[0].items()
                                     if k != "config"})

    def row(ncl: int, setup: dict) -> dict:
        log, snapshots = trace_cell(trace, setup["config"], obs)
        return _table1_row(params, ncl, log,
                           rollback_analysis(snapshots, setup["nprocs"]))

    return [row(ncl, setup) for ncl, setup in zip(params["clusters"], setups)]


def table1_tasks(kernels: Sequence[str], ranks: Sequence[int],
                 clusters: Sequence[int], niters: int) -> list:
    """Task list for the Table I grid, in the table's row order."""
    return [
        SweepTask(
            name=f"{name}/{nprocs}r/{ncl}cl",
            params={"kernel": name, "ranks": nprocs, "clusters": ncl,
                    "niters": niters},
        )
        for name in kernels
        for nprocs in ranks
        for ncl in clusters
        if ncl <= nprocs
    ]


# ----------------------------------------------------------------------
# Randomized failure/recovery runs
# ----------------------------------------------------------------------
def stencil_scenario(nprocs: int, nclusters: int, niters: int = 40,
                     fail_rank: int | None = None,
                     fail_frac: float | None = 0.5, obs: Any = None,
                     record_sequences: bool = False):
    """The Stencil2D failure scenario behind ``repro sweep`` and the
    CLI's ``demo`` / ``explain`` / ``obs`` / ``report``:
    block clusters, and ``fail_rank`` (default: the last rank) killed at
    ``fail_frac`` of the horizon a failure-free reference run measures
    first.  ``fail_frac=None`` runs without a failure (and a reference).
    Returns ``(ref, world, controller, fail_rank, fail_time)`` with
    ``world`` — the one ``obs`` instruments — run to completion.  Both
    worlds come back closed: results, reports and statistics stay
    readable; a caller that compares them arms ``record_sequences``."""
    config = ProtocolConfig(checkpoint_interval=3e-5,
                            cluster_of=block_clusters(nprocs, nclusters),
                            cluster_stagger=5e-6, rank_stagger=1e-6)
    factory = lambda r, s: Stencil2D(r, s, niters=niters, block=3)
    ref = fail_time = None
    if fail_frac is not None:
        ref, ref_controller = build_ft_world(
            nprocs, factory, config, record_sequences=record_sequences)
        with closing(ref_controller):
            ref.launch()
            ref.run()
        fail_rank = nprocs - 1 if fail_rank is None else fail_rank
        fail_time = fail_frac * ref.engine.now
    world, controller = build_ft_world(
        nprocs, factory, config, obs=obs, record_sequences=record_sequences)
    with closing(controller):
        if fail_frac is not None:
            controller.inject_failure(fail_time, fail_rank)
            controller.arm()
        world.launch()
        world.run()
    return ref, world, controller, fail_rank, fail_time


def failure_scenario(params: dict) -> dict:
    """One randomized failure/recovery run (module-level for pickling).

    The sweep seed picks the failing rank and failure time; the run then
    validates recovery against its own failure-free reference
    (Definition 1, :func:`repro.analysis.compare_executions`) and reports
    rollback/logging statistics.
    """
    nprocs = params["ranks"]
    rng = random.Random(params["seed"])
    fail_rank = rng.randrange(nprocs)
    ref, world, controller, _, fail_time = stencil_scenario(
        nprocs, params["clusters"], params["niters"], fail_rank,
        rng.uniform(0.2, 0.8), obs=params.get("obs"), record_sequences=True)
    report = controller.recovery_reports[0]
    stats = controller.logging_stats()
    return {
        "fail_rank": fail_rank,
        "fail_time_ms": fail_time * 1e3,
        "rolled_back": sorted(report.rolled_back),
        "pct_rolled_back": 100 * len(report.rolled_back) / nprocs,
        "recovery_rounds": len(controller.recovery_reports),
        "pct_log": 100 * stats["log_fraction"],
        "valid": compare_executions(ref, world).valid,
    }


def failure_tasks(runs: int, ranks: int, clusters: int, niters: int) -> list:
    return [
        SweepTask(name=f"failure-{i:03d}",
                  params={"ranks": ranks, "clusters": clusters,
                          "niters": niters})
        for i in range(runs)
    ]


# ----------------------------------------------------------------------
# Service self-test (cheap, no simulation — exercises queue/cache/pool)
# ----------------------------------------------------------------------
def selftest_cell(params: dict) -> dict:
    """Trivial pure function of (seed, params) for service smoke tests."""
    i, seed = params["i"], params["seed"]
    return {"i": i, "residue": seed % 997, "square": i * i}


def selftest_tasks(count: int) -> list:
    return [SweepTask(name=f"self-{i:03d}", params={"i": i})
            for i in range(count)]


# ----------------------------------------------------------------------
# Specs, the planner and the runner
# ----------------------------------------------------------------------
CAMPAIGN_KINDS = ("sweep", "table1", "chaos", "selftest")

#: per kind, every accepted spec field (beyond "kind") and its default —
#: the only statement of either: the keyword entry points of
#: :mod:`repro.chaos` take these fields and defer to this table.
DEFAULTS: dict[str, dict[str, Any]] = {
    "table1": {"kernels": ("CG", "FT"), "ranks": (16,), "clusters": (4,),
               "niters": 8, "base_seed": 0, "timeseries": None},
    "sweep": {"ranks": 8, "clusters": 2, "niters": 40, "runs": 8,
              "base_seed": 0, "timeseries": None},
    "chaos": {"trials": 100, "seed": 0, "kernels": None, "bug": "",
              "shrink": 3},
    "selftest": {"tasks": 8, "base_seed": 0},
}


def validate_spec(spec: dict[str, Any]) -> dict[str, Any]:
    """Check a campaign spec's shape, kernel names and (ranks, clusters)
    cells; returns a copy with every field of its kind present (absent or
    ``None`` fields take the default)."""
    if not isinstance(spec, dict):
        raise ConfigError("campaign spec must be a JSON object")
    kind = spec.get("kind")
    if kind not in CAMPAIGN_KINDS:
        raise ConfigError(
            f"unknown campaign kind {kind!r} (have {CAMPAIGN_KINDS})")
    unknown = sorted(set(spec) - set(DEFAULTS[kind]) - {"kind"})
    if unknown:
        raise ConfigError(
            f"unknown spec field(s) for kind {kind!r}: {', '.join(unknown)}")
    given = {k: v for k, v in spec.items() if v is not None}
    spec = {**DEFAULTS[kind], **given}
    known = list(TABLE1_KERNELS) if kind == "table1" else list(KERNELS)
    unknown = sorted(set(spec.get("kernels") or ()) - set(known))
    if unknown:
        raise ConfigError(f"unknown {kind} kernel(s) {', '.join(unknown)} "
                          f"(have {', '.join(known)})")
    cells = [(int(spec["ranks"]), int(spec["clusters"]))] if kind == "sweep" else []
    if kind == "table1":
        cells = [(t.params["ranks"], t.params["clusters"]) for t in table1_tasks(
            spec["kernels"], _many(spec["ranks"]), _many(spec["clusters"]), 0)]
        if not cells:
            raise ConfigError("table1 grid keeps no cell (each needs clusters <= ranks)")
    for nprocs, ncl in cells:
        block_clusters(nprocs, ncl)  # raises ConfigError on a cell it cannot build
    if kind == "chaos" and spec["bug"]:
        from .chaos.trial import SYNTHETIC_BUGS

        if spec["bug"] not in SYNTHETIC_BUGS:
            raise ConfigError(f"unknown synthetic bug {spec['bug']!r} "
                              f"(have {sorted(SYNTHETIC_BUGS)})")
    return spec


def _many(value: Any) -> list[int]:
    """A grid axis: the CLI sends a list; a JSON spec may give one number."""
    return [int(v) for v in value] if isinstance(value, (list, tuple)) \
        else [int(value)]


def plan(spec: dict[str, Any]) -> tuple[Callable, list, int, list[type]]:
    """What campaign ``spec`` computes: ``(fn, tasks, base_seed, kernels)``
    — ``fn`` runs over ``tasks`` seeded from ``base_seed``; ``kernels``
    are the rank-program classes the tasks may instantiate (what the
    ``--strict-sd`` certification gate checks).  No simulation runs."""
    spec = validate_spec(spec)
    kind = spec["kind"]
    if kind == "chaos":
        from .chaos.trial import run_trial

        # run_trial's params: the schedule generator's options
        pool = list(spec["kernels"]) if spec["kernels"] else None
        params = {"kernels": pool, "bug": spec["bug"]}
        tasks = [SweepTask(name=f"trial-{i}", params=dict(params))
                 for i in range(int(spec["trials"]))]
        return (run_trial, tasks, int(spec["seed"]),
                [KERNELS[k].cls for k in pool or CHAOS_POOL])
    base_seed = int(spec["base_seed"])
    if kind == "selftest":
        return selftest_cell, selftest_tasks(int(spec["tasks"])), base_seed, []
    if kind == "sweep":
        tasks = failure_tasks(int(spec["runs"]), int(spec["ranks"]),
                              int(spec["clusters"]), int(spec["niters"]))
        return failure_scenario, tasks, base_seed, [Stencil2D]
    names, niters = list(spec["kernels"]), int(spec["niters"])
    cells = table1_tasks(names, _many(spec["ranks"]), _many(spec["clusters"]), niters)
    tasks = []  # one per (kernel, ranks), for the cluster counts it keeps
    for (name, nprocs), group in groupby(cells, lambda t: (t.params["kernel"], t.params["ranks"])):
        counts = [t.params["clusters"] for t in group]
        tasks.append(SweepTask(f"{name}/{nprocs}r/{','.join(map(str, counts))}cl", {
            "kernel": name, "ranks": nprocs, "clusters": counts, "niters": niters}))
    return table1_rows, tasks, base_seed, [TABLE1_KERNELS[k] for k in names]


class CampaignRun(NamedTuple):
    """What :func:`run_campaign` hands its front-end to format: results
    in task order, the merged simulation registry (never holds cache or
    steal accounting), this run's share of the cache's hit / miss / store
    / unkeyable tallies, and — chaos only — the scored and shrunk
    :class:`~repro.chaos.CampaignReport`."""

    results: list
    registry: Any
    cache_delta: dict[str, int] | None
    report: Any


def run_campaign(
    spec: dict[str, Any],
    workers: int = 1,
    cache: Any = None,
    scheduler: Any = None,
    service_obs: Any = None,
    obs: Any = None,
    on_progress: Callable[[Any], None] | None = None,
    stream: Any = None,
    collect_obs: bool = True,
) -> CampaignRun:
    """Run the campaign ``spec`` describes — the one path under the
    one-shot CLI, :func:`repro.chaos.run_campaign` and the service.

    ``cache`` / ``scheduler`` / ``service_obs`` / ``collect_obs`` pass
    straight through to :func:`repro.sweep.run_sweep`.  ``obs`` replaces
    the fresh merge registry (no flight stream) the run otherwise
    creates.  ``stream`` — a :class:`repro.obs.ProgressStream`, or the
    path to open one at — gets ``campaign_begin``, one ``task_done`` per
    task and ``campaign_end``; the runner closes it, whatever happens,
    so ``campaign_end`` is the last event of a stream that has one.
    """
    if isinstance(stream, str):
        stream = ProgressStream.open(stream)
    try:
        spec = validate_spec(spec)
        kind = spec["kind"]
        fn, tasks, base_seed, _ = plan(spec)
        registry = obs if obs is not None else MetricsRegistry(flight=False)
        before = cache.stats() if cache is not None else None
        if stream is not None:
            begin = {"trials" if kind == "chaos" else "tasks": len(tasks),
                     "workers": workers}
            if kind in ("sweep", "chaos"):
                begin["seed"] = base_seed
            if kind in ("table1", "chaos"):
                pool = spec["kernels"]
                begin["kernels"] = list(pool) if pool else None
            stream.emit("campaign_begin", campaign=kind, **begin)
            on_progress = stream_progress(stream, len(tasks),
                                          inner=on_progress)
        results = run_sweep(
            fn, tasks, workers=workers, base_seed=base_seed, obs=registry,
            on_progress=on_progress, collect_obs=collect_obs,
            timeseries=spec.get("timeseries"), cache=cache,
            scheduler=scheduler, service_obs=service_obs,
        )
        report = None
        if kind == "chaos":
            from .chaos.campaign import score_trials, shrink_failures

            report = score_trials(results, base_seed, workers, registry)
            end = report.tallies()
        else:
            errors = sum(1 for r in results if not r.ok)
            end = {"ok": not errors, "tasks": len(results), "errors": errors,
                   "cache": cache.stats() if cache is not None else None}
        if stream is not None:
            stream.emit("campaign_end", campaign=kind, **end)
        if report is not None:
            shrink_failures(report, int(spec["shrink"]))
    finally:
        if stream is not None:
            stream.close()
    delta = None
    if cache is not None:
        after = cache.stats()
        delta = {k: after[k] - before[k]
                 for k in ("hits", "misses", "stores", "unkeyable")}
    return CampaignRun(results, registry, delta, report)
