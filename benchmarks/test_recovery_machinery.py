"""Recovery machinery micro-benchmarks.

Section III-B of the paper notes that "for very large scale applications,
computing the recovery line could be expensive because it requires to scan
the table again every time a rollback is found" and suggests parallel
scanning.  Our worklist solver makes the scan incremental; this benchmark
measures how the recovery-line computation and a full live recovery scale
with the rank count, and times checkpoint capture.

``results/recovery_machinery.txt`` keeps only what the code fixes (sizes,
rolled-back counts, log lengths), so it regenerates byte for byte; the
host wall-clock figures go to ``results/BENCH_throughput.json``
(``recovery_line_ms`` per rank count, ``checkpoint_capture_us`` per case).
"""

import random

import numpy as np
import pytest

from repro.analysis.report import format_table
from repro.apps import Stencil1D
from repro.core import ProtocolConfig, SentMessage, build_ft_world
from repro.core.recovery import RecoveryLineSolver, compute_recovery_line

from conftest import emit, emit_json, is_paper_scale, timed


def synthetic_spe(nprocs: int, epochs: int = 6, degree: int = 8, seed: int = 1):
    """Random-but-plausible SPE tables: each rank talks to ``degree``
    neighbours, reception epochs near sending epochs (non-logged rule)."""
    rng = random.Random(seed)
    tables = {}
    for rank in range(nprocs):
        table = {}
        date = 0
        for e in range(1, epochs + 1):
            peers = {}
            for _ in range(degree):
                peer = rng.randrange(nprocs)
                if peer != rank:
                    peers[peer] = max(1, e - rng.randrange(2))
            table[e] = (date, peers)
            date += rng.randrange(1, 20)
        tables[rank] = table
    return tables


SIZES = [64, 256, 1024] if is_paper_scale() else [64, 256]

_sections: dict[str, str] = {}


def emit_recovery_machinery(section: str, table: str) -> None:
    """``results/recovery_machinery.txt`` holds one table per benchmark of
    this module; each re-emits the file with every table produced so far."""
    _sections[section] = table
    emit("recovery_machinery.txt", "\n\n".join(_sections.values()))


@pytest.fixture(scope="module")
def scaling_rows():
    import time

    rows = []
    for nprocs in SIZES:
        tables = synthetic_spe(nprocs)
        solver = RecoveryLineSolver(tables)
        t0 = time.perf_counter()
        trials = 50
        total_rolled = 0
        for f in range(trials):
            rl = solver.solve({f % nprocs: max(tables[f % nprocs])})
            total_rolled += len(rl)
        dt = (time.perf_counter() - t0) / trials
        rows.append([nprocs, total_rolled / trials, dt * 1e3])
    return rows


def test_recovery_line_scaling_table(scaling_rows, benchmark):
    table = format_table(
        ["ranks", "mean rolled back"],
        [[nprocs, f"{rolled:.1f}"] for nprocs, rolled, _ in scaling_rows],
    )
    emit_recovery_machinery("recovery line", table)
    emit_json("BENCH_throughput.json", {"recovery_line_ms": {
        str(nprocs): round(ms, 3) for nprocs, _, ms in scaling_rows}})
    tables = synthetic_spe(SIZES[-1])
    solver = RecoveryLineSolver(tables)
    benchmark(lambda: solver.solve({0: max(tables[0])}))


def test_recovery_line_reuses_index(benchmark):
    """Amortisation check: reusing the solver's index across failure
    hypotheses (the pattern of ``run_domino_analysis`` and of the
    ``rollback_closure`` sanitizer's sampled re-solves; Table I itself has
    used the all-failures closure of ``analysis/rollback.py`` since PR 12)
    is much cheaper than rebuilding it per failure."""
    tables = synthetic_spe(256)
    solver = RecoveryLineSolver(tables)

    def amortised():
        for f in range(16):
            solver.solve({f: max(tables[f])})

    benchmark(amortised)


def test_recovery_line_wrapper_equivalent(benchmark):
    tables = synthetic_spe(64)
    solver = RecoveryLineSolver(tables)

    def check():
        for f in (0, 5, 63):
            assert solver.solve({f: max(tables[f])}) == compute_recovery_line(
                tables, {f: max(tables[f])}
            )
        return True

    assert benchmark(check)


def test_live_recovery_latency(benchmark):
    """Wall-clock cost of a full live recovery round (kill, drain, line,
    replay, resume) on a small world — a regression canary for the
    controller's recovery machinery."""
    def run():
        world, ctl = build_ft_world(
            8, lambda r, s: Stencil1D(r, s, niters=20, cells=4),
            ProtocolConfig(checkpoint_interval=2e-5, rank_stagger=2e-6),
        )
        ctl.inject_failure(5e-5, 3)
        ctl.arm()
        world.launch()
        world.run()
        return len(ctl.recovery_reports)

    assert benchmark(run) == 1


#: (logged, un-acked) records planted on rank 0 before timing a capture
CAPTURE_CASES = {
    "as the run left it": (0, 0),
    "long sender log": (1000, 200),
}


def _capture_controller(logged: int, unacked: int):
    """A finished 4-rank stencil world whose rank 0 holds, on top of what
    the run left, ``logged`` sender-log entries and ``unacked`` NonAck
    records with 1 KiB ndarray payloads — the state a checkpoint of a
    long-running, heavily logging rank has to capture."""
    world, ctl = build_ft_world(
        4, lambda r, s: Stencil1D(r, s, niters=10, cells=4096),
        ProtocolConfig(),
    )
    world.launch()
    world.run()
    st = ctl.protocols[0].state
    st.begin_epoch()
    payload = np.arange(128, dtype=np.float64)
    common = dict(tag=0, size=payload.nbytes, epoch_send=st.epoch,
                  phase_send=st.phase)
    for i in range(logged):
        st.lg_append(SentMessage(dst=1 + i % 3, payload=payload.copy(),
                                 date=st.next_date(),
                                 epoch_recv=st.epoch + 1, **common))
    for i in range(unacked):
        st.na_append(SentMessage(dst=1 + i % 3, payload=payload.copy(),
                                 date=st.next_date(), **common))
    return ctl


_capture_rows: dict[str, list] = {}
_capture_us: dict[str, float] = {}


@pytest.mark.parametrize("case", CAPTURE_CASES)
def test_checkpoint_capture_cost(case, benchmark):
    """Time to capture one full checkpoint — app snapshot, library-queue
    image and the typed structural copy of the protocol state
    (docs/performance.md, "Checkpoint capture") — for a rank with almost no
    log and for one with >= 1000 logged and >= 200 un-acked messages."""
    logged, unacked = CAPTURE_CASES[case]
    ctl = _capture_controller(logged, unacked)
    st = ctl.protocols[0].state
    st.epoch = 100

    def capture():
        ctl.store_checkpoint(0)
        # drop it again: the store refuses a second checkpoint of an epoch
        ctl.store.discard_above(0, 99)

    # own clock for the emitted figure, so it is there under
    # --benchmark-disable too
    per_call = timed(lambda: [capture() for _ in range(20)], rounds=5) / 20
    _capture_rows[case] = [case, len(st.logs), len(st.non_ack)]
    _capture_us[case] = round(per_call * 1e6, 1)
    emit_recovery_machinery(
        "capture",
        format_table(["rank 0 state", "logged", "un-acked"],
                     list(_capture_rows.values())),
    )
    emit_json("BENCH_throughput.json", {"checkpoint_capture_us": _capture_us})
    benchmark(capture)
