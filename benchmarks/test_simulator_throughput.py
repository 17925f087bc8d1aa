"""Simulator throughput micro-benchmarks.

Not a paper artefact — a performance regression canary for the substrate
itself: the Table I sweep and the cascade stress tests are only practical
because the engine dispatches hundreds of thousands of events per second.

Besides the human-readable tables under ``results/*.txt``, these tests
maintain ``results/BENCH_throughput.json`` — a machine-readable artefact
with event/message rates, the protocol and instrumentation overhead
factors, and the speedup against the committed seed-commit baseline
(``benchmarks/baseline_seed.json``).
"""

import statistics
from contextlib import closing
from dataclasses import replace

from repro.analysis.report import format_table
from repro.apps import FTKernel, Stencil2D
from repro.campaigns import table1_cell, table1_setup
from repro.core import ProtocolConfig, build_ft_world
from repro.simmpi import World
from repro.simmpi.engine import Engine

from conftest import (emit, emit_json, median, paired_factor,
                      seed_baseline, timed, timed_interleaved)

BURST_EVENTS = 10_000
#: same-instant burst: total events and events per instant.  SPMD ranks
#: move in lockstep, so at scale an instant holds tens of events (19 on the
#: 256-rank MG cell, 38 on the 1024-rank CG cell).
INSTANT_EVENTS = 200_000
INSTANT_WIDTH = 32


def _engine_burst() -> int:
    eng = Engine()
    for i in range(BURST_EVENTS):
        eng.schedule(i * 1e-9, lambda: None)
    eng.run()
    return eng.events_dispatched


def _engine_instant_burst() -> int:
    """Schedule and dispatch ``INSTANT_EVENTS`` events, ``INSTANT_WIDTH``
    to the instant, through the engine's one primitive: per event a
    ``dict.get`` and two appends in, an index step and a call out — the
    heap is touched once per instant."""
    eng = Engine()

    def deliver(item: int) -> None:
        pass

    for i in range(INSTANT_EVENTS // INSTANT_WIDTH):
        time = i * 1e-9
        for item in range(INSTANT_WIDTH):
            eng.post_at(time, deliver, item)
    eng.run()
    return eng.events_dispatched


def _bare_world() -> World:
    world = World(8, lambda r, s: Stencil2D(r, s, niters=30, block=3))
    world.launch()
    world.run()
    return world


def _protocol_world():
    world, _ = build_ft_world(
        8, lambda r, s: Stencil2D(r, s, niters=30, block=3),
        ProtocolConfig(checkpoint_interval=3e-5, lightweight=True,
                       retain_payloads=False),
    )
    world.launch()
    world.run()
    return world


# The overhead canaries run first: their factors compare configs that
# differ in allocation volume, and the heavy burst/alltoall tests below
# leave the allocator arenas fragmented — which taxes the allocation-heavy
# config more and silently inflates the measured ratio.
#
# They time what a campaign pays: 64-rank Table-I cells, MG and FT, each
# with a registry built the way the sweep executor builds one (no flight
# recorder; chaos trials add one).  A cell runs its program once under
# ``record_trace``, which carries no protocol, so the flight recorder is
# timed on the same programs run under the protocol.  One side of a pair
# is both cells; the per-round ratios' quartiles are reported beside the
# factor, because a shared host's noise is of the size being measured.

#: the cells each side of an overhead pair runs
OVERHEAD_CELLS = (
    {"kernel": "MG", "ranks": 64, "clusters": 4, "niters": 8},
    {"kernel": "FT", "ranks": 64, "clusters": 4, "niters": 8},
)
#: interleaved pairs per overhead factor
OVERHEAD_ROUNDS = 15


def _campaign_cells(make_obs=None) -> None:
    """The overhead cells, each with a fresh ``make_obs()`` registry (or
    none)."""
    for params in OVERHEAD_CELLS:
        table1_cell(dict(params, obs=make_obs() if make_obs else None))


def _protocol_cells(make_obs=None) -> None:
    """The overhead cells' programs run under the paper's protocol, each
    world with a fresh ``make_obs()`` registry (or none)."""
    for params in OVERHEAD_CELLS:
        setup = table1_setup(params)
        config = replace(setup["config"], lightweight=True, retain_payloads=False)
        world, controller = build_ft_world(
            setup["nprocs"], setup["program_factory"], config,
            obs=make_obs() if make_obs else None)
        with closing(controller):
            world.launch()
            world.run()


#: what one side of an overhead pair runs, by the name its table gives it
OVERHEAD_RUNS = {"Table-I cells": _campaign_cells,
                 "Table-I cells' protocol worlds": _protocol_cells}


def _overhead(name: str, labels: tuple[str, str], baseline, treatment,
              json_prefix: str, run: str = "Table-I cells") -> float:
    """Time ``baseline`` / ``treatment`` registry factories interleaved on
    ``OVERHEAD_RUNS[run]``; emit ``results/<name>`` and the JSON keys (with
    the quartiles of the per-round ratios), and return the paired factor."""
    cells = OVERHEAD_RUNS[run]
    samples = timed_interleaved({
        "baseline": lambda: cells(baseline),
        "treatment": lambda: cells(treatment),
    }, rounds=OVERHEAD_ROUNDS)
    t_base = median(samples["baseline"])
    t_treat = median(samples["treatment"])
    factor = paired_factor(samples["treatment"], samples["baseline"])
    q1, _, q3 = statistics.quantiles(
        [t / b for t, b in zip(samples["treatment"], samples["baseline"])], n=4)
    emit(name, format_table(
        ["configuration", "wall s", "factor", "ratio quartiles"],
        [[labels[0], f"{t_base:.3f}", "1.00", ""],
         [labels[1], f"{t_treat:.3f}", f"{factor:.3f}", f"{q1:.3f}-{q3:.3f}"]],
    ) + f"(64-rank MG + FT {run} per side, {OVERHEAD_ROUNDS} "
        f"interleaved pairs)\n")
    emit_json("BENCH_throughput.json", {
        f"{json_prefix}_off_wall_s": round(t_base, 6),
        f"{json_prefix}_on_wall_s": round(t_treat, 6),
        f"{json_prefix}_overhead_factor": round(factor, 3),
        f"{json_prefix}_ratio_quartiles": [round(q1, 3), round(q3, 3)],
    })
    return factor


def test_instrumentation_overhead_factor(benchmark):
    """Cost of a campaign's metrics registry on the cells it instruments.

    ``off`` has no registry at all (``obs=None``, the only "off"); ``on``
    the registry a campaign task gets.  The per-event series are read from
    the counts engine, network and protocol keep anyway, so what ``on``
    pays is the sampled histograms: budget ≤ 1.10×, asserted loosely here
    (shared CI runners spike).
    """
    from repro.obs import MetricsRegistry

    factor = _overhead(
        "instrumentation_overhead.txt", ("obs disabled (default)",
                                         "campaign registry"),
        None, lambda: MetricsRegistry(flight=False), "instrumentation")
    benchmark.pedantic(_campaign_cells, rounds=1, iterations=1)
    assert factor < 1.5


def test_flight_recorder_overhead_factor(benchmark):
    """Marginal cost of the protocol flight recorder — what a chaos trial
    adds — on top of a campaign registry, on protocol worlds (a trace-
    derived cell has no protocol transitions to record).

    The recorder is one cached identity check plus a timestamped tuple
    appended onto a pre-resolved per-rank sink per protocol transition:
    about four records per message.
    """
    from repro.obs import MetricsRegistry

    factor = _overhead(
        "flight_overhead.txt", ("metrics, flight off", "metrics + flight"),
        lambda: MetricsRegistry(flight=False), MetricsRegistry, "flight",
        run="Table-I cells' protocol worlds")
    benchmark.pedantic(lambda: _protocol_cells(MetricsRegistry), rounds=1,
                       iterations=1)
    assert factor < 1.15


def test_timeseries_overhead_factor(benchmark):
    """Marginal cost of the virtual-time series recorder on top of a
    campaign registry.

    The recorder is a boundary hook in the dispatch loop: one float
    compare per instant on the off path, plus the probe sweep (~a dozen
    cheap readers) each time a grid point is crossed.  At the default
    interval that must stay ≤ 1.05× (CI gates the committed JSON at 1.10
    to absorb runner noise).
    """
    from repro.obs import MetricsRegistry
    from repro.obs.timeseries import DEFAULT_TIMESERIES_INTERVAL

    def with_series():
        return MetricsRegistry(flight=False,
                               timeseries_interval=DEFAULT_TIMESERIES_INTERVAL)

    factor = _overhead(
        "timeseries_overhead.txt", ("metrics, recorder off",
                                    "metrics + timeseries"),
        lambda: MetricsRegistry(flight=False), with_series, "timeseries")
    benchmark.pedantic(lambda: _campaign_cells(with_series), rounds=1,
                       iterations=1)
    assert factor < 1.5


def test_engine_event_dispatch_rate(benchmark):
    """Schedule-and-dispatch rates, one event to the instant and many.

    ``engine_singleton_events_per_s`` is the rate when every event has an
    instant of its own (one heap push and pop, one bucket each) —
    the floor a run off lockstep pays.  ``engine_events_per_s`` is the
    rate at ``INSTANT_WIDTH`` events to the instant, where the heap is
    touched once per instant (what the Table I cells ride at scale).
    """
    wall_single = timed(_engine_burst)
    wall_instants = timed(_engine_instant_burst, rounds=5)
    emit_json("BENCH_throughput.json", {
        "engine_burst_s": round(wall_single, 6),
        "engine_singleton_events_per_s": round(BURST_EVENTS / wall_single),
        "engine_instant_burst_s": round(wall_instants, 6),
        "engine_instant_width": INSTANT_WIDTH,
        "engine_events_per_s": round(INSTANT_EVENTS / wall_instants),
    })
    assert benchmark(_engine_instant_burst) == INSTANT_EVENTS


def test_pt2pt_message_rate(benchmark):
    msgs = _bare_world().tracer.total_app_messages()
    wall = timed(_bare_world)
    emit_json("BENCH_throughput.json", {
        "pt2pt_messages": msgs,
        "pt2pt_wall_s": round(wall, 6),
        "pt2pt_messages_per_s": round(msgs / wall),
    })
    assert benchmark(lambda: _bare_world().tracer.total_app_messages()) > 0


def test_protocol_overhead_factor(benchmark):
    """Wall-clock cost of the full protocol stack vs the bare substrate on
    the same workload (acks double the event count; bookkeeping adds CPU),
    plus the speedup over the seed-commit baseline walls."""
    # best-of-7: single-core containers show large run-to-run jitter, and
    # this factor is the headline regression canary
    t_bare = timed(_bare_world, rounds=7)
    t_ft = timed(_protocol_world, rounds=7)
    factor = t_ft / t_bare if t_bare else float("inf")
    base = seed_baseline()
    speedup_ft = base["with_protocol_s"] / t_ft if t_ft else float("inf")
    speedup_bare = base["bare_s"] / t_bare if t_bare else float("inf")
    emit("simulator_throughput.txt", format_table(
        ["configuration", "wall s", "seed-baseline s", "speedup"],
        [["bare substrate", f"{t_bare:.3f}", f"{base['bare_s']:.3f}",
          f"{speedup_bare:.2f}x"],
         ["full protocol", f"{t_ft:.3f}", f"{base['with_protocol_s']:.3f}",
          f"{speedup_ft:.2f}x"],
         ["factor (protocol/bare)", f"{factor:.2f}", "", ""]],
    ))
    emit_json("BENCH_throughput.json", {
        "bare_wall_s": round(t_bare, 6),
        "protocol_wall_s": round(t_ft, 6),
        "protocol_overhead_factor": round(factor, 3),
        "seed_baseline": {k: v for k, v in base.items()
                          if not k.startswith("_")},
        "speedup_vs_seed_bare": round(speedup_bare, 3),
        "speedup_vs_seed_protocol": round(speedup_ft, 3),
    })
    benchmark.pedantic(_protocol_world, rounds=2, iterations=1)
    assert factor < 20  # bookkeeping, not an algorithmic blow-up


def test_alltoall_heavy_workload_rate(benchmark):
    def run():
        world = World(32, lambda r, s: FTKernel(r, s, niters=2, slab=2))
        world.launch()
        world.run()
        return world.tracer.total_app_messages()

    msgs = benchmark(run)
    assert msgs >= 32 * 31 * 2
