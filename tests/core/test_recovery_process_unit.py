"""Unit tests for the recovery process's message handling (Fig. 4) driven
directly, without a full world."""

import pytest

from repro.core.protocol import CTL
from repro.core.recovery import RecoveryProcess
from repro.errors import ProtocolError
from repro.simmpi.message import CONTROL_TAG_BASE, Envelope


class StubController:
    """Captures the recovery process's outbound broadcasts."""

    def __init__(self, nprocs):
        self.nprocs = nprocs
        self.broadcasts = []
        self.completed = []
        self.now = 0.0
        self.obs = None

    def broadcast_control(self, tag, payload):
        self.broadcasts.append((tag, dict(payload)))

    def on_recovery_complete(self, report):
        self.completed.append(report)


def ctl_env(src, tag, payload):
    return Envelope(src=src, dst=99, tag=tag, payload=payload)


def spe(epochs):
    return {e: (0, {}) for e in epochs}


def make_recovery(nprocs=3):
    stub = StubController(nprocs)
    rp = RecoveryProcess(stub)
    return stub, rp


def start_round(rp, failed=(0,), round_no=1):
    rp.begin_round(round_no, list(failed), now=0.0)


def test_round_cannot_start_twice():
    stub, rp = make_recovery()
    start_round(rp)
    with pytest.raises(ProtocolError):
        rp.begin_round(2, [1], now=0.0)


def test_stale_round_traffic_ignored():
    stub, rp = make_recovery()
    start_round(rp, round_no=2)
    rp.receive(ctl_env(0, CTL.ROLLBACK, {"epoch": 1, "date": 0, "round": 1}))
    assert rp._rollback_notices == {}


def test_line_computed_after_all_inputs():
    stub, rp = make_recovery(nprocs=2)
    start_round(rp, failed=(0,))
    rp.receive(ctl_env(0, CTL.ROLLBACK, {"epoch": 2, "date": 5, "round": 1}))
    assert not rp._rl_sent
    rp.receive(ctl_env(0, CTL.SPE_UPLOAD,
                       {"spe": spe([1, 2]), "epoch": 2, "date": 5, "round": 1}))
    assert not rp._rl_sent  # still waiting for rank 1's SPE
    rp.receive(ctl_env(1, CTL.SPE_UPLOAD,
                       {"spe": spe([1]), "epoch": 1, "date": 0, "round": 1}))
    assert rp._rl_sent
    tags = [t for t, _p in stub.broadcasts]
    assert CTL.RECOVERY_LINE in tags


def notif(status="Blocked", phase=1, orph=(), logs=()):
    return {
        "status": status,
        "phase": phase,
        "orph_entries": list(orph),
        "log_phases": list(logs),
        "round": 1,
    }


def drive_to_notifications(stub, rp, notifs):
    start_round(rp, failed=(0,))
    rp.receive(ctl_env(0, CTL.ROLLBACK, {"epoch": 2, "date": 5, "round": 1}))
    for rank in range(stub.nprocs):
        rp.receive(ctl_env(rank, CTL.SPE_UPLOAD,
                           {"spe": spe([1, 2]), "epoch": 2, "date": 5,
                            "round": 1}))
    for rank, n in enumerate(notifs):
        rp.receive(ctl_env(rank, CTL.ORPHAN_NOTIF, n))


def ready_phases(stub):
    return [p["phase"] for t, p in stub.broadcasts if t == CTL.READY_PHASE]


def test_no_orphans_notifies_everything_and_finishes():
    stub, rp = make_recovery(nprocs=3)
    drive_to_notifications(stub, rp, [
        notif("RolledBack", phase=3),
        notif("Blocked", phase=4),
        notif("Blocked", phase=2),
    ])
    assert ready_phases(stub) == list(range(0, 5))
    assert not rp.active
    assert stub.completed


def test_orphan_blocks_higher_phases():
    stub, rp = make_recovery(nprocs=3)
    drive_to_notifications(stub, rp, [
        notif("RolledBack", phase=2),
        notif("Blocked", phase=4, orph=[(3, 0)]),  # orphan from rank 0 at ph 3
        notif("Blocked", phase=4),
    ])
    assert ready_phases(stub) == [0, 1, 2]  # blocked at 3
    rp.receive(ctl_env(1, CTL.NO_ORPHAN, {"phase": 3, "sender": 0, "round": 1}))
    assert ready_phases(stub) == [0, 1, 2, 3, 4]
    assert not rp.active


def test_orphan_phase_remap_to_sender_registration():
    """An orphan recorded at phase 1 whose sender registered at phase 5 is
    lifted to phase 5 (the cross-branch deadlock fix)."""
    stub, rp = make_recovery(nprocs=3)
    drive_to_notifications(stub, rp, [
        notif("RolledBack", phase=5),           # sender rank 0
        notif("Blocked", phase=6, orph=[(1, 0)]),  # stale bucket 1
        notif("Blocked", phase=2),
    ])
    # phases 0..4 must be released (the orphan sits at eff phase 5), which
    # releases the rank-0 sender (registered 5 -> ReadyPhase(4))
    assert ready_phases(stub) == [0, 1, 2, 3, 4]
    rp.receive(ctl_env(1, CTL.NO_ORPHAN, {"phase": 1, "sender": 0, "round": 1}))
    assert not rp.active


def test_unexpected_no_orphan_rejected():
    stub, rp = make_recovery(nprocs=3)
    drive_to_notifications(stub, rp, [
        notif("RolledBack", phase=2),
        notif("Blocked", phase=4, orph=[(3, 0)]),  # keeps the round active
        notif("Blocked", phase=2),
    ])
    assert rp.active
    with pytest.raises(ProtocolError):
        rp.receive(ctl_env(1, CTL.NO_ORPHAN,
                           {"phase": 9, "sender": 0, "round": 1}))


def test_unknown_tag_rejected():
    stub, rp = make_recovery()
    start_round(rp)
    with pytest.raises(ProtocolError):
        rp.receive(ctl_env(0, CONTROL_TAG_BASE - 1, {"round": 1}))


def test_report_records_line_and_phases():
    stub, rp = make_recovery(nprocs=3)
    drive_to_notifications(stub, rp, [
        notif("RolledBack", phase=2),
        notif("Blocked", phase=2),
        notif("Blocked", phase=2),
    ])
    report = stub.completed[0]
    assert report.failed == [0]
    assert 0 in report.recovery_line
    assert report.phases_notified == len(ready_phases(stub))
