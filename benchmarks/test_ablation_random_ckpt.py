"""Section V-E-2 ablation — uncoordinated checkpoints at random times.

The paper: "we ran some experiments with uncoordinated checkpoints and
random checkpoint time for each process and noticed that a small number of
messages need to be logged.  However, in all these experiments, all
processes need to roll back in the event of a failure: taking checkpoints
randomly does not create any consistent cut in causal dependency paths."

Reproduced three ways on the same workload:

* random checkpointing *with* the logging rule but *without* clustering —
  few messages logged, (almost) everyone rolls back;
* random checkpointing with logging disabled (plain uncoordinated) — the
  domino effect proper;
* clustered epochs — the paper's remedy.
"""

import pytest

from repro.analysis.report import format_table
from repro.analysis.rollback import record_trace, rollback_analysis, trace_cell
from repro.apps import Stencil2D
from repro.baselines import run_domino_analysis
from repro.core import ProtocolConfig
from repro.core.clustering import block_clusters

from conftest import emit, is_paper_scale

NPROCS = 32 if is_paper_scale() else 16


def factory(rank, size):
    return Stencil2D(rank, size, niters=40, block=3)


def measure_all():
    """%log and %rl of each configuration, derived from one run of the
    workload: the configurations differ only in checkpoint policy."""
    trace = record_trace(NPROCS, factory)

    def measure(config):
        log, snapshots = trace_cell(trace, config, 4e-5)
        return (100 * log["log_fraction"],
                rollback_analysis(snapshots, NPROCS).percent)

    base = dict(checkpoint_interval=2e-5, checkpoint_jitter=0.15)
    out = {}
    out["random, logging on"] = measure(ProtocolConfig(**base))
    out["random, logging off"] = measure(
        ProtocolConfig(**base, log_cross_epoch=False)
    )
    out["clustered epochs"] = measure(
        ProtocolConfig(
            checkpoint_interval=2e-5,
            cluster_of=block_clusters(NPROCS, 4),
            cluster_stagger=5e-6,
            rank_stagger=5e-7,
        )
    )
    return out


@pytest.fixture(scope="module")
def results():
    return measure_all()


def test_random_ckpt_table(results, benchmark):
    rows = [
        [name, f"{log:.1f}", f"{rl:.1f}"] for name, (log, rl) in results.items()
    ]
    table = format_table(["configuration", "%log", "%rl"], rows)
    table += ("\n(paper V-E-2: random checkpointing logs little but rolls "
              "everyone back; clustering is required)\n")
    emit("ablation_random_ckpt.txt", table)
    benchmark.pedantic(measure_all, rounds=1, iterations=1)


def test_random_ckpt_rolls_nearly_everyone(results, benchmark):
    log, rl = results["random, logging on"]
    assert benchmark(lambda: rl) > 80.0
    assert log < 50.0


def test_logging_off_is_worse_or_equal(results, benchmark):
    _, rl_on = results["random, logging on"]
    _, rl_off = results["random, logging off"]
    assert benchmark(lambda: rl_off) >= rl_on - 1.0


def test_clustering_fixes_it(results, benchmark):
    _, rl_random = results["random, logging on"]
    _, rl_clustered = results["clustered epochs"]
    assert benchmark(lambda: rl_clustered) < 70.0
    assert rl_clustered < rl_random - 15.0


def test_domino_baseline_reaches_beginning(benchmark):
    stats = benchmark.pedantic(
        lambda: run_domino_analysis(
            NPROCS, factory, checkpoint_interval=2e-5,
            sample_interval=4e-5, jitter=0.15,
        ),
        rounds=1, iterations=1,
    )
    assert stats.restart_from_beginning_fraction > 0.5
