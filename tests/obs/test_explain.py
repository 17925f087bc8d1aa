"""Recovery-line explainability: the explained line must equal the
solver's output exactly, and every rolled-back rank must be attributed to
a concrete non-logged message."""

import pytest

from repro.apps.stencil import Stencil2D
from repro.core import ProtocolConfig, build_ft_world
from repro.core.recovery import RecoveryLineSolver, compute_recovery_line
from repro.obs import (
    FlightKind,
    FlightRecorder,
    MetricsRegistry,
    explain_recovery_line,
    explain_report,
)


# ----------------------------------------------------------------------
# Synthetic fix-points
# ----------------------------------------------------------------------
def spe(entries):
    """epoch -> (start_date, {peer: recv_epoch})"""
    return {e: (d, dict(pp)) for e, (d, pp) in entries.items()}


def test_single_edge_chain():
    # rank 0 sent non-logged from epoch 1, received by rank 1 in epoch 2;
    # rank 1 fails back to epoch 2 -> rank 0 must restart at epoch 1.
    tables = {
        0: spe({1: (0, {1: 2}), 2: (10, {})}),
        1: spe({1: (0, {}), 2: (12, {})}),
    }
    failed = {1: 2}
    ex = explain_recovery_line(tables, failed)
    assert ex.recovery_line == compute_recovery_line(tables, failed)
    assert ex.recovery_line[0] == (1, 0)
    r0 = ex.ranks[0]
    assert not r0.failed
    assert r0.edge.receiver == 1 and r0.edge.epoch_send == 1
    assert r0.chain == (0, 1)
    r1 = ex.ranks[1]
    assert r1.failed and r1.edge is None


def test_transitive_chain_reaches_failed_rank():
    # 2 -> 1 -> 0(failed): each sender forced by the next receiver
    tables = {
        0: spe({1: (0, {}), 2: (10, {})}),
        1: spe({1: (0, {0: 1}), 2: (11, {})}),
        2: spe({1: (0, {1: 1}), 2: (12, {})}),
    }
    failed = {0: 1}
    ex = explain_recovery_line(tables, failed)
    assert set(ex.recovery_line) == {0, 1, 2}
    assert ex.ranks[2].chain[0] == 2
    assert ex.ranks[2].chain[-1] == 0  # terminates at the failed process
    assert ex.ranks[1].chain == (1, 0)


def test_uid_resolution_from_flight_confirms():
    tables = {
        0: spe({1: (0, {1: 2}), 2: (10, {})}),
        1: spe({1: (0, {}), 2: (12, {})}),
    }
    fr = FlightRecorder()
    # two confirms on the channel; only the epoch-matching one is a witness
    fr.record(0, FlightKind.CONFIRM, peer=1, uid=41, epoch_send=1, epoch_recv=1)
    fr.record(0, FlightKind.CONFIRM, peer=1, uid=42, epoch_send=1, epoch_recv=2)
    ex = explain_recovery_line(tables, {1: 2}, flight=fr)
    assert ex.ranks[0].edge.uid == 42


def test_no_flight_leaves_uid_unresolved():
    tables = {
        0: spe({1: (0, {1: 2}), 2: (10, {})}),
        1: spe({1: (0, {}), 2: (12, {})}),
    }
    ex = explain_recovery_line(tables, {1: 2})
    assert ex.ranks[0].edge.uid is None
    assert "uid=?" in ex.ranks[0].describe()


def test_format_mentions_every_rank():
    tables = {
        0: spe({1: (0, {1: 2}), 2: (10, {})}),
        1: spe({1: (0, {}), 2: (12, {})}),
    }
    text = explain_recovery_line(tables, {1: 2}).format()
    assert "rank 0" in text and "rank 1" in text
    assert "failed" in text and "non-logged message" in text


# ----------------------------------------------------------------------
# Integration: a real failure scenario
# ----------------------------------------------------------------------
def run_failure(nprocs=8):
    config = ProtocolConfig(checkpoint_interval=2e-5, rank_stagger=3e-6)
    factory = lambda r, s: Stencil2D(r, s, niters=25, block=3)
    obs = MetricsRegistry()
    world, controller = build_ft_world(nprocs, factory, config, obs=obs)
    controller.inject_failure(4e-5, nprocs - 1)
    controller.arm()
    world.launch()
    world.run()
    return controller, obs


def test_explained_line_equals_solver_exactly():
    controller, obs = run_failure()
    report = controller.recovery_reports[0]
    ex = explain_report(report, flight=obs.flight)
    solver_line = RecoveryLineSolver(report.spe_tables).solve(
        report.failed_restarts
    )
    assert ex.recovery_line == solver_line == report.recovery_line


def test_every_rolled_back_rank_gets_concrete_message():
    controller, obs = run_failure()
    report = controller.recovery_reports[0]
    assert len(report.rolled_back) >= 2  # failure plus forced rollbacks
    ex = explain_report(report, flight=obs.flight)
    for rank in report.rolled_back:
        rexp = ex.ranks[rank]
        if rexp.failed:
            continue
        edge = rexp.edge
        assert edge is not None, f"rank {rank} unexplained"
        # a concrete non-logged message (uid, epoch_send, epoch_recv)
        assert edge.uid is not None and edge.uid > 0
        assert edge.epoch_send >= 1 and edge.epoch_recv >= edge.receiver_bound
        # the chain bottoms out at a failed process
        assert rexp.chain[-1] in report.failed_restarts


def test_explain_report_rejects_empty_tables():
    controller, obs = run_failure()
    report = controller.recovery_reports[0]
    report.spe_tables = {}
    with pytest.raises(ValueError):
        explain_report(report, flight=obs.flight)
