"""Section V-E-3 theory — expected rolled-back clusters = (p+1)/2.

The paper derives that with ``p`` clusters at staggered epochs and
failures evenly distributed, ``p(p+1)/2`` cluster-rollbacks happen over
``p`` single-failure executions, i.e. ``(p+1)/2`` on average — approaching
half the machine.  This benchmark checks the closed form against a
Monte-Carlo simulation of the cluster-epoch ordering *and* against the
actual protocol: a workload is run once per failed cluster, and the
measured rolled-back fractions are averaged.
"""

import pytest

from repro.analysis import (
    expected_rollback_fraction,
    expected_rolled_back_clusters,
    monte_carlo_rollback_fraction,
)
from repro.analysis.report import format_table
from repro.apps import Stencil2D
from repro.core import ProtocolConfig, build_ft_world
from repro.core.clustering import block_clusters

from conftest import emit

NPROCS = 16
NCLUSTERS = 4


def factory(rank, size):
    return Stencil2D(rank, size, niters=40, block=3)


def rollback_fraction_for_failure(fail_rank: int) -> float:
    config = ProtocolConfig(
        checkpoint_interval=3e-5,
        cluster_of=block_clusters(NPROCS, NCLUSTERS),
        cluster_stagger=5e-6,
        rank_stagger=5e-7,
    )
    world, controller = build_ft_world(NPROCS, factory, config)
    controller.inject_failure(9e-5, fail_rank)
    controller.arm()
    world.launch()
    world.run()
    return len(controller.recovery_reports[0].rolled_back) / NPROCS


@pytest.fixture(scope="module")
def measured():
    """One live failure per cluster (first rank of each)."""
    per = NPROCS // NCLUSTERS
    return {c: rollback_fraction_for_failure(c * per) for c in range(NCLUSTERS)}


def test_theory_table(measured, benchmark):
    rows = []
    for p in (2, 4, 8, 16, 32):
        rows.append([
            p,
            f"{expected_rolled_back_clusters(p):.2f}",
            f"{100 * expected_rollback_fraction(p):.2f}",
            f"{100 * monte_carlo_rollback_fraction(p, trials=5000):.2f}",
        ])
    table = format_table(
        ["clusters p", "E[clusters rolled]", "E[%rl] closed form",
         "E[%rl] Monte-Carlo"], rows,
    )
    table += "\nmeasured per failed cluster (protocol, 16 ranks / 4 clusters):\n"
    table += format_table(
        ["failed cluster (epoch order)", "measured %rl",
         "pessimistic model %rl"],
        [[c, f"{100 * f:.1f}", f"{100 * (NCLUSTERS - c) / NCLUSTERS:.1f}"]
         for c, f in measured.items()],
    )
    emit("theory_rollback.txt", table)
    benchmark(lambda: monte_carlo_rollback_fraction(16, trials=2000))


def test_closed_form_values(benchmark):
    vals = benchmark(
        lambda: [100 * expected_rollback_fraction(p) for p in (4, 8, 16)]
    )
    assert vals == pytest.approx([62.5, 56.25, 53.125])


def test_measured_fraction_monotone_in_cluster_position(measured, benchmark):
    """Failing a higher-epoch cluster rolls back no more than failing a
    lower-epoch one (the asymmetry the average is built from)."""
    series = benchmark(lambda: [measured[c] for c in sorted(measured)])
    for a, b in zip(series, series[1:]):
        assert b <= a + 1e-9


def test_measured_average_at_or_below_model(measured, benchmark):
    """The pessimistic model upper-bounds the measurement (a failure rolls
    back at most the whole cluster + higher-epoch clusters)."""
    avg = benchmark(lambda: sum(measured.values()) / len(measured))
    assert avg <= expected_rollback_fraction(NCLUSTERS) + 1e-9
    assert avg > 0.2  # and it is a real fraction, not a degenerate zero


def test_lowest_cluster_failure_rolls_everyone(measured, benchmark):
    assert benchmark(lambda: measured[0]) == pytest.approx(1.0)
