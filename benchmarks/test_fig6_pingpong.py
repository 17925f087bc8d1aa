"""Fig. 6 — NetPIPE-style ping-pong: latency and bandwidth for native
MPICH2 vs the protocol with and without message logging.

Reproduced two ways:

* the analytic :class:`~repro.netmodel.PerfModel` generates the full
  1 B – 8 MiB curves (the printed table / saved series);
* the simulator runs the actual :class:`~repro.apps.PingPong` kernel under
  the three timing models, cross-checking that simulated half-round-trip
  times track the analytic model.

Shape assertions (the paper's findings):
* small-message latency overhead of the protocol ≈ 15 % (~0.5 us), with
  and without logging;
* without logging, large-message bandwidth is indistinguishable from
  native (acks are overlapped);
* with logging, the extra copy visibly caps large-message bandwidth.
"""

import pytest

from repro.analysis.report import format_table
from repro.apps.pingpong import PingPong
from repro.netmodel import MODES, PerfModel, timing_model_for
from repro.simmpi import World

from conftest import emit

SIZES = [1 << k for k in range(0, 24)]


@pytest.fixture(scope="module")
def model():
    return PerfModel()


@pytest.fixture(scope="module")
def analytic_series(model):
    return model.series(SIZES)


@pytest.fixture(scope="module")
def simulated_series():
    out = {}
    for mode in MODES:
        world = World(
            2,
            lambda r, s: PingPong(r, s, sizes=SIZES, reps=3),
            timing=timing_model_for(mode),
        )
        world.launch()
        world.run()
        out[mode] = world.programs[0].result()
    return out


def test_fig6_table(analytic_series, simulated_series, benchmark):
    rows = []
    model = PerfModel()
    for size in SIZES:
        rows.append([
            size,
            f"{analytic_series['native'][size] * 1e6:.2f}",
            f"{analytic_series['protocol-nolog'][size] * 1e6:.2f}",
            f"{analytic_series['protocol-log'][size] * 1e6:.2f}",
            f"{model.bandwidth_mbps(size, 'native'):.0f}",
            f"{model.bandwidth_mbps(size, 'protocol-nolog'):.0f}",
            f"{model.bandwidth_mbps(size, 'protocol-log'):.0f}",
        ])
    table = format_table(
        ["size_B", "lat_native_us", "lat_nolog_us", "lat_log_us",
         "bw_native_Mbps", "bw_nolog_Mbps", "bw_log_Mbps"],
        rows,
    )
    emit("fig6_pingpong.txt", table)

    def run_one():
        world = World(2, lambda r, s: PingPong(r, s, sizes=[1024], reps=3),
                      timing=timing_model_for("protocol-log"))
        world.launch()
        world.run()
        return world.programs[0].result()

    benchmark.pedantic(run_one, rounds=3, iterations=1)


def test_fig6_small_message_latency_overhead(model, benchmark):
    overhead = benchmark(lambda: model.latency_overhead(8, "protocol-nolog"))
    assert 0.10 < overhead < 0.25  # the paper's ~15 %


def test_fig6_logging_caps_large_bandwidth(model, simulated_series, benchmark):
    big = 8 << 20
    ratio = benchmark(
        lambda: model.bandwidth_mbps(big, "protocol-log")
        / model.bandwidth_mbps(big, "native")
    )
    assert ratio < 0.8  # visibly lower, as in Fig. 6 right
    # and the no-logging curve hugs native
    nolog = model.bandwidth_mbps(big, "protocol-nolog")
    native = model.bandwidth_mbps(big, "native")
    assert nolog == pytest.approx(native, rel=0.02)


def test_fig6_simulation_tracks_model(analytic_series, simulated_series, benchmark):
    """Simulated one-way times equal the analytic model (the simulator's
    timing layer is the model), modulo receiver-side constants."""
    def check():
        mismatches = 0
        for mode in MODES:
            for size in (64, 65536, 8 << 20):
                sim = simulated_series[mode][size]
                ana = analytic_series[mode][size]
                if abs(sim - ana) / ana > 0.25:
                    mismatches += 1
        return mismatches

    assert benchmark(check) == 0


def test_fig6_crossover_order_preserved(model, benchmark):
    """At every size: native <= protocol-nolog <= protocol-log."""
    def check():
        for size in SIZES:
            t = [model.one_way_time(size, m) for m in MODES]
            assert t[0] <= t[1] <= t[2]
        return True

    assert benchmark(check)
