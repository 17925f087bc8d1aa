"""One recorded run, every policy's Table I cell: :func:`trace_cell` must
equal the live protocol run of the same cell (:func:`.live_cell.live_rollback`)
snapshot for snapshot — the same instants, SPE entries with their start
dates and epochs — and in its logging statistics.

Run under ``REPRO_SANITIZE=1`` too, so that ``rollback_closure`` checks
the derived snapshots against the Fig. 4 fix-point."""

from dataclasses import replace

import pytest

from repro.analysis.rollback import record_trace, trace_cell
from repro.apps import TABLE1_KERNELS, Stencil1D
from repro.baselines import run_domino_analysis, uncoordinated_plain
from repro.campaigns import table1_cell, table1_setup
from repro.core.controller import FTController
from repro.errors import ConfigError

from .live_cell import live_rollback, live_table1_cell

RANKS, NITERS = 16, 4


def _setup(kernel: str, clusters: int) -> dict:
    return table1_setup({"kernel": kernel, "ranks": RANKS,
                         "clusters": clusters, "niters": NITERS})


@pytest.fixture(scope="module")
def traces():
    """One recorded run per kernel; the cluster count is policy only."""
    return {kernel: record_trace(**{k: v for k, v in _setup(kernel, 2).items()
                                    if k != "config"})
            for kernel in TABLE1_KERNELS}


def _assert_derived_equals_live(trace, setup: dict) -> None:
    log, snapshots = trace_cell(trace, setup["config"])
    live_log, live_snapshots, _ = live_rollback(**setup)
    assert log == live_log
    assert len(snapshots) == len(live_snapshots) > 0
    for derived, live in zip(snapshots, live_snapshots):
        assert derived.time == live.time
        assert derived.epochs == live.epochs
        assert derived.spe_tables == live.spe_tables


@pytest.mark.parametrize("clusters", [2, 4, 8])
@pytest.mark.parametrize("kernel", list(TABLE1_KERNELS))
def test_trace_cell_equals_the_live_cell(traces, kernel, clusters):
    _assert_derived_equals_live(traces[kernel], _setup(kernel, clusters))


@pytest.mark.parametrize("interval", [6e-4, 2e-3])
@pytest.mark.parametrize("clusters", [4, 8])
@pytest.mark.parametrize("kernel", ["LU", "BT", "MG"])
def test_longer_checkpoint_intervals(traces, kernel, clusters, interval):
    """The intervals ``examples/checkpoint_interval.py`` tabulates beside
    Table I's, at which a rank declines most or all of its opportunities."""
    setup = _setup(kernel, clusters)
    setup["config"] = replace(setup["config"], checkpoint_interval=interval)
    _assert_derived_equals_live(traces[kernel], setup)


@pytest.mark.parametrize("kernel", ["CG", "MG"])
def test_jittered_schedule(traces, kernel):
    """The schedule's seeded draws replay over the recorded opportunities."""
    setup = _setup(kernel, 4)
    setup["config"] = replace(setup["config"], checkpoint_jitter=0.4,
                              checkpoint_seed=3)
    _assert_derived_equals_live(traces[kernel], setup)


@pytest.mark.parametrize("kernel", ["LU", "FT"])
def test_domino_baseline_logs_nothing(traces, kernel):
    """``log_cross_epoch=False``: every message enters SPE."""
    setup = _setup(kernel, 4)
    setup["config"] = replace(setup["config"], log_cross_epoch=False)
    _assert_derived_equals_live(traces[kernel], setup)
    assert trace_cell(traces[kernel], setup["config"])[0]["messages_logged"] == 0


def test_checkpoint_writes_are_refused(traces):
    """Checkpoint I/O stalls the run, so its timing depends on the policy."""
    config = replace(_setup("CG", 4)["config"], checkpoint_size_bytes=1 << 20)
    with pytest.raises(ConfigError, match="checkpoint"):
        trace_cell(traces["CG"], config)


def _domino():
    return run_domino_analysis(
        6, lambda r, s: Stencil1D(r, s, niters=30, cells=4),
        checkpoint_interval=2e-5, sample_interval=3e-5, jitter=0.5)


def test_cells_and_the_domino_baseline_run_no_protocol(monkeypatch):
    """``table1_cell`` and ``run_domino_analysis`` simulate once, under
    ``record_trace``: they construct no ``FTController`` (whichever module's
    ``build_ft_world`` would build one), and what they return equals the
    live protocol's measurement."""
    params = {"kernel": "MG", "ranks": RANKS, "clusters": 4, "niters": NITERS}
    built = []
    init = FTController.__init__

    def spy(self, *args, **kw):
        built.append(self)
        init(self, *args, **kw)

    with monkeypatch.context() as patch:
        patch.setattr(FTController, "__init__", spy)
        row, domino = table1_cell(params), _domino()
        assert built == []
        live_row = live_table1_cell(params)
        patch.setattr(uncoordinated_plain, "measure_rollback", live_rollback)
        live_domino = _domino()
    assert len(built) == 2  # the spy sees the live reference's controllers
    assert row == live_row and row["pct_rollback"] > 0
    assert domino == live_domino
    assert domino.restart_from_beginning_fraction > 0.5
