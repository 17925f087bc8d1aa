"""Table I — logged messages (%log) and rolled-back processes (%rl) for
the five NAS kernels under process clustering.

Methodology exactly as in Section V-E-1:

* run each kernel failure-free under the protocol with block clustering
  and per-cluster staggered epochs/checkpoints;
* snapshot every rank's SPE table periodically;
* offline, for every (snapshot, failed rank) pair, run the recovery-line
  fix-point and count the rolled-back processes;
* %log is the measured fraction of messages the epoch rule logged.

A cell is :func:`repro.campaigns.table1_cell`, the grid is the
``repro table1`` campaign, and the table is what that command prints.
Scale: quick mode sweeps {16, 64} ranks x {4, 8} clusters into
``results/table1_logging_rollback.txt``; ``REPRO_BENCH_SCALE=paper`` runs
the paper's {64, 128, 256} x {4, 8, 16} into
``results/table1_paper_scale.txt`` (failures are exhaustively enumerated
as in the paper).

Shape assertions (the paper's findings):
* %rl stays close to the ``(p+1)/2p`` model (62.5 / 56.25 / 53.125 % for
  4/8/16 clusters) and never exceeds coordinated checkpointing's 100 %;
* more clusters -> fewer rolled-back processes, more logged messages;
* FT (all-to-all) logs by far the most; CG/LU/MG/BT log a small fraction;
* %log always stays at or below ~50 % (the epoch-reconfiguration bound).
"""

import pytest

from repro import campaigns
from repro.analysis import expected_rollback_fraction
from repro.analysis.report import format_table1
from repro.apps import TABLE1_KERNELS

from conftest import WORKERS, emit, is_paper_scale

if is_paper_scale():
    SIZES = [64, 128, 256]
    CLUSTERS = [4, 8, 16]
    RESULT = "table1_paper_scale.txt"
else:
    SIZES = [16, 64]
    CLUSTERS = [4, 8]
    RESULT = "table1_logging_rollback.txt"
SPEC = {"kind": "table1", "kernels": list(TABLE1_KERNELS), "ranks": SIZES,
        "clusters": CLUSTERS, "niters": 8}


@pytest.fixture(scope="module")
def rows():
    """Every Table I cell's :func:`repro.campaigns.table1_cell` row, run as
    the ``repro table1`` campaign of this grid; ``REPRO_BENCH_WORKERS=N``
    fans it across N processes (the cells are deterministic)."""
    results = campaigns.run_campaign(SPEC, workers=WORKERS).results
    for res in results:
        if not res.ok:
            raise RuntimeError(
                f"table1 cell {res.name} failed: {res.error}\n{res.traceback}"
            )
    return [row for res in results for row in res.value]


@pytest.fixture(scope="module")
def table1(rows):
    """``{(kernel, ranks, clusters): (%log, %rl)}``."""
    return {(r["kernel"], r["ranks"], r["clusters"]):
            (r["pct_log"], r["pct_rollback"]) for r in rows}


def test_table1(rows, benchmark):
    # what ``repro table1`` prints for SPEC, then the paper's figures
    table = format_table1(rows, CLUSTERS)
    table += ("paper (class D, 64-256 ranks): CG logs 2.9-4.4 %, FT 37-47 %; "
              "%rl ~62.5/56.3/53.1 for 4/8/16 clusters\n")
    emit(RESULT, table)
    cell = {"kernel": "CG", "ranks": SIZES[0], "clusters": CLUSTERS[0],
            "niters": SPEC["niters"]}
    benchmark.pedantic(lambda: campaigns.table1_cell(cell), rounds=1,
                       iterations=1)


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
