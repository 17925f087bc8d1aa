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

from repro.apps import FTKernel, Stencil2D
from repro.core import ProtocolConfig, build_ft_world
from repro.simmpi import World
from repro.simmpi.engine import Engine

from conftest import (emit, emit_json, format_table, median, paired_factor,
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
    world = World(8, lambda r, s: Stencil2D(r, s, niters=30, block=3),
                  copy_payloads=False)
    world.launch()
    world.run()
    return world


def _protocol_world(obs=None):
    world, _ = build_ft_world(
        8, lambda r, s: Stencil2D(r, s, niters=30, block=3),
        ProtocolConfig(checkpoint_interval=3e-5, lightweight=True,
                       retain_payloads=False),
        copy_payloads=False, obs=obs,
    )
    world.launch()
    world.run()
    return world


# The two ratio canaries run first: overhead factors compare configs that
# differ mainly in allocation volume, and the heavy burst/alltoall tests
# below leave the allocator arenas fragmented — which taxes the
# allocation-heavy config more and silently inflates the measured ratio.

def test_instrumentation_overhead_factor(benchmark):
    """Cost of the observability layer on the full protocol stack.

    Two configurations, interleaved, the factor the median of per-round
    paired ratios (sequential per-config blocks let host drift land in
    the ratio, and best-of-N pairing lets one lucky baseline round
    inflate it; see ``timed_interleaved`` / ``paired_factor``):

    * ``off`` — no registry at all (``obs=None``, the only "off");
    * ``on`` — a live :class:`MetricsRegistry` with slot-resolved
      instruments.  Must be ≤ 1.25× off.
    """
    from repro.obs import MetricsRegistry

    samples = timed_interleaved({
        "off": _protocol_world,
        "on": lambda: _protocol_world(obs=MetricsRegistry()),
    }, rounds=21)
    t_off = median(samples["off"])
    t_on = median(samples["on"])
    on_factor = paired_factor(samples["on"], samples["off"])
    emit("instrumentation_overhead.txt", format_table(
        ["configuration", "wall s", "factor"],
        [["obs disabled (default)", f"{t_off:.3f}", "1.00"],
         ["obs fully enabled", f"{t_on:.3f}", f"{on_factor:.2f}"]],
    ))
    emit_json("BENCH_throughput.json", {
        "instrumentation_off_wall_s": round(t_off, 6),
        "instrumentation_on_wall_s": round(t_on, 6),
        "instrumentation_overhead_factor": round(on_factor, 3),
    })
    benchmark.pedantic(_protocol_world, rounds=2, iterations=1)
    # the target: full collection ≤ 1.25×, asserted loosely here (shared
    # CI runners spike)
    assert on_factor < 2.5


def test_flight_recorder_overhead_factor(benchmark):
    """Marginal cost of the protocol flight recorder on an already
    instrumented run.

    The recorder is one cached identity check plus a timestamped tuple
    appended onto a pre-resolved per-rank sink per protocol transition.
    The metrics baseline it is measured against got markedly faster with
    slot-resolved instruments, so the same absolute flight cost is a
    larger *ratio* than it used to be; the budget reflects the absolute
    cost (interleaved per-round paired ratios, see ``timed_interleaved``
    and ``paired_factor``).
    """
    from repro.obs import MetricsRegistry

    samples = timed_interleaved({
        "metrics": lambda: _protocol_world(obs=MetricsRegistry(flight_capacity=0)),
        "flight": lambda: _protocol_world(obs=MetricsRegistry()),
    }, rounds=15)
    t_metrics = median(samples["metrics"])
    t_flight = median(samples["flight"])
    factor = paired_factor(samples["flight"], samples["metrics"])
    emit("flight_overhead.txt", format_table(
        ["configuration", "wall s", "factor"],
        [["metrics, flight off", f"{t_metrics:.3f}", "1.00"],
         ["metrics + flight", f"{t_flight:.3f}", f"{factor:.2f}"]],
    ))
    emit_json("BENCH_throughput.json", {
        "flight_off_wall_s": round(t_metrics, 6),
        "flight_on_wall_s": round(t_flight, 6),
        "flight_overhead_factor": round(factor, 3),
    })
    benchmark.pedantic(
        lambda: _protocol_world(obs=MetricsRegistry()), rounds=2,
        iterations=1)
    assert factor < 1.15


def test_timeseries_overhead_factor(benchmark):
    """Marginal cost of the virtual-time series recorder on an already
    instrumented run.

    The recorder is a boundary hook in the dispatch loop: one float
    compare per dispatched event on the off path, plus the probe sweep
    (~a dozen cheap readers) each time a grid point is crossed.  At the
    default interval that must stay ≤ 1.05× a plain instrumented run
    (CI gates the committed JSON at 1.10 to absorb runner noise).
    """
    from repro.obs import MetricsRegistry
    from repro.obs.timeseries import DEFAULT_TIMESERIES_INTERVAL

    samples = timed_interleaved({
        "metrics": lambda: _protocol_world(obs=MetricsRegistry()),
        "timeseries": lambda: _protocol_world(obs=MetricsRegistry(
            timeseries_interval=DEFAULT_TIMESERIES_INTERVAL)),
    }, rounds=15)
    t_metrics = median(samples["metrics"])
    t_series = median(samples["timeseries"])
    factor = paired_factor(samples["timeseries"], samples["metrics"])
    emit("timeseries_overhead.txt", format_table(
        ["configuration", "wall s", "factor"],
        [["metrics, recorder off", f"{t_metrics:.3f}", "1.00"],
         ["metrics + timeseries", f"{t_series:.3f}", f"{factor:.2f}"]],
    ))
    emit_json("BENCH_throughput.json", {
        "timeseries_off_wall_s": round(t_metrics, 6),
        "timeseries_on_wall_s": round(t_series, 6),
        "timeseries_overhead_factor": round(factor, 3),
    })
    benchmark.pedantic(
        lambda: _protocol_world(obs=MetricsRegistry(
            timeseries_interval=DEFAULT_TIMESERIES_INTERVAL)),
        rounds=2, iterations=1)
    assert factor < 1.5


def test_engine_event_dispatch_rate(benchmark):
    """Schedule-and-dispatch rates, one event to the instant and many.

    ``engine_singleton_events_per_s`` is the rate when every event has an
    instant of its own (one heap push and pop, one ``EventHandle`` each) —
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
        world = World(32, lambda r, s: FTKernel(r, s, niters=2, slab=2),
                      copy_payloads=False)
        world.launch()
        world.run()
        return world.tracer.total_app_messages()

    msgs = benchmark(run)
    assert msgs >= 32 * 31 * 2
