"""Table I — logged messages (%log) and rolled-back processes (%rl) for
the five NAS kernels under process clustering.

Methodology exactly as in Section V-E-1:

* run each kernel failure-free under the protocol with block clustering
  and per-cluster staggered epochs/checkpoints;
* snapshot every rank's SPE table periodically;
* offline, for every (snapshot, failed rank) pair, run the recovery-line
  fix-point and count the rolled-back processes;
* %log is the measured fraction of messages the epoch rule logged.

Scale: quick mode sweeps {16, 64} ranks x {4, 8} clusters; set
``REPRO_BENCH_SCALE=paper`` for the paper's {64, 128, 256} x {4, 8, 16}
(minutes of runtime; failures are exhaustively enumerated as in the
paper).

Shape assertions (the paper's findings):
* %rl stays close to the ``(p+1)/2p`` model (62.5 / 56.25 / 53.125 % for
  4/8/16 clusters) and never exceeds coordinated checkpointing's 100 %;
* more clusters -> fewer rolled-back processes, more logged messages;
* FT (all-to-all) logs by far the most; CG/LU/MG/BT log a small fraction;
* %log always stays at or below ~50 % (the epoch-reconfiguration bound).
"""

import pytest

from repro.analysis import SpeSampler, expected_rollback_fraction, rollback_analysis
from repro.apps import TABLE1_KERNELS
from repro.core import ProtocolConfig, build_ft_world
from repro.core.clustering import block_clusters

from repro.sweep import SweepTask, run_sweep

from conftest import WORKERS, emit, format_table, is_paper_scale

if is_paper_scale():
    SIZES = [64, 128, 256]
    CLUSTERS = [4, 8, 16]
    NITERS = 8
else:
    SIZES = [16, 64]
    CLUSTERS = [4, 8]
    NITERS = 8

KERNEL_KW = {
    "MG": dict(levels=3, block=8),
    "LU": dict(nblocks=3, block=6),
    "FT": dict(slab=2),
    "CG": dict(block=4),
    "BT": dict(block=6),
}


def run_case(name: str, nprocs: int, nclusters: int):
    cls = TABLE1_KERNELS[name]
    kw = dict(KERNEL_KW[name])
    kw["niters"] = NITERS
    kw["compute_time"] = 1e-5
    factory = lambda r, s: cls(r, s, **kw)
    config = ProtocolConfig(
        checkpoint_interval=6e-5,
        cluster_of=block_clusters(nprocs, nclusters),
        cluster_stagger=8e-6,
        rank_stagger=2e-7,
        lightweight=True,
        retain_payloads=False,
    )
    world, controller = build_ft_world(nprocs, factory, config,
                                       copy_payloads=False)
    sampler = SpeSampler(controller, interval=7e-5)
    sampler.arm()
    world.launch()
    world.run()
    if not sampler.snapshots:
        sampler.take()
    rb = rollback_analysis(sampler.snapshots, nprocs)
    return 100 * controller.logging_stats()["log_fraction"], rb.percent


def sweep_cell(params: dict) -> tuple:
    """Sweep adapter around :func:`run_case` (module-level: picklable)."""
    return run_case(params["kernel"], params["ranks"], params["clusters"])


@pytest.fixture(scope="module")
def table1():
    """All Table I cells, computed through the sweep executor.

    ``REPRO_BENCH_WORKERS=N`` fans the grid across N processes (each cell
    is an independent deterministic simulation); the default of 1 runs the
    exact sequential loop this fixture always was.
    """
    keys = [
        (name, nprocs, nclusters)
        for name in TABLE1_KERNELS
        for nprocs in SIZES
        for nclusters in CLUSTERS
        if nclusters <= nprocs
    ]
    tasks = [
        SweepTask(name=f"{k[0]}/{k[1]}r/{k[2]}cl",
                  params={"kernel": k[0], "ranks": k[1], "clusters": k[2]})
        for k in keys
    ]
    results = run_sweep(sweep_cell, tasks, workers=WORKERS)
    out = {}
    for key, res in zip(keys, results):
        if not res.ok:
            raise RuntimeError(
                f"table1 cell {res.name} failed: {res.error}\n{res.traceback}"
            )
        out[key] = tuple(res.value)
    return out


def test_table1(table1, benchmark):
    headers = ["kernel"]
    for nprocs in SIZES:
        for ncl in CLUSTERS:
            headers += [f"{nprocs}/{ncl}cl %log", "%rl"]
    rows = []
    for name in TABLE1_KERNELS:
        row = [name]
        for nprocs in SIZES:
            for ncl in CLUSTERS:
                log, rl = table1[(name, nprocs, ncl)]
                row += [f"{log:.1f}", f"{rl:.1f}"]
        rows.append(row)
    theory = "  ".join(
        f"{p}cl:{100 * expected_rollback_fraction(p):.1f}%" for p in CLUSTERS
    )
    table = format_table(headers, rows)
    table += f"\ntheoretical %rl ((p+1)/2p): {theory}\n"
    table += ("paper (class D, 64-256 ranks): CG logs 2.9-4.4 %, FT 37-47 %; "
              "%rl ~62.5/56.3/53.1 for 4/8/16 clusters\n")
    emit("table1_logging_rollback.txt", table)
    benchmark.pedantic(
        lambda: run_case("CG", SIZES[0], CLUSTERS[0]), rounds=1, iterations=1
    )


def test_table1_rollback_near_theory(table1, benchmark):
    """%rl tracks (p+1)/2p: at or below it + a small workload-skew margin,
    and always well below the 100 % of coordinated checkpointing."""
    def check():
        bad = []
        for (name, nprocs, ncl), (_log, rl) in table1.items():
            bound = 100 * expected_rollback_fraction(ncl)
            if not (rl <= bound + 15.0):
                bad.append((name, nprocs, ncl, rl, bound))
            if rl >= 100.0:
                bad.append((name, nprocs, ncl, rl, "coordinated"))
        return bad

    assert benchmark(check) == []


def test_table1_more_clusters_fewer_rollbacks(table1, benchmark):
    """Given a kernel and size, using more clusters reduces %rl (the
    trade-off sentence under Table I)."""
    def violations():
        out = []
        for name in TABLE1_KERNELS:
            for nprocs in SIZES:
                series = [
                    table1[(name, nprocs, ncl)][1]
                    for ncl in CLUSTERS if ncl <= nprocs
                ]
                for a, b in zip(series, series[1:]):
                    if b > a + 3.0:  # small tolerance: sampled executions
                        out.append((name, nprocs, a, b))
        return out

    assert benchmark(violations) == []


def test_table1_more_clusters_more_logging(table1, benchmark):
    """...and increases %log (smaller clusters -> more inter-cluster
    traffic crossing epochs)."""
    def violations():
        out = []
        for name in TABLE1_KERNELS:
            for nprocs in SIZES:
                series = [
                    table1[(name, nprocs, ncl)][0]
                    for ncl in CLUSTERS if ncl <= nprocs
                ]
                for a, b in zip(series, series[1:]):
                    if b < a - 3.0:
                        out.append((name, nprocs, a, b))
        return out

    assert benchmark(violations) == []


def test_table1_ft_logs_most(table1, benchmark):
    """FT's all-to-all defeats clustering: it logs the most of the five
    kernels at every configuration (paper: 37-47 % vs single digits)."""
    def check():
        for nprocs in SIZES:
            for ncl in CLUSTERS:
                if ncl > nprocs:
                    continue
                ft = table1[("FT", nprocs, ncl)][0]
                for other in ("CG", "LU", "MG", "BT"):
                    if ft < table1[(other, nprocs, ncl)][0]:
                        return (nprocs, ncl, other)
        return None

    assert benchmark(check) is None


def test_table1_cg_logs_little(table1, benchmark):
    """CG clusters beautifully (paper: < 5 % at 256/16): its %log is small
    at the largest configuration."""
    nprocs = SIZES[-1]
    ncl = [c for c in CLUSTERS if c <= nprocs][-1]
    log, _rl = table1[("CG", nprocs, ncl)]
    assert benchmark(lambda: log) < 25.0


def test_table1_log_fraction_bounded_by_half(table1, benchmark):
    """Section V-E-3: the logged fraction can always be kept at ~50 %."""
    def worst():
        return max(log for log, _rl in table1.values())

    assert benchmark(worst) <= 55.0
