"""Scripted replays of the paper's worked examples (Figs. 1 and 2) and of
the corner cases the text calls out."""

import numpy as np
import pytest

from repro.apps.base import RankProgram
from repro.core import ProtocolConfig, build_ft_world
from repro.core.protocol import Status


class Fig1Program(RankProgram):
    """Fig. 1: P1 fails; m8/m9 senders (P0, P2, in epoch 2) roll back;
    P3 keeps orphan m10; P4's cross-epoch m7 is replayed from its log."""

    def __init__(self, rank, size):
        super().__init__(rank, size)
        self.state = {"step": 0, "inbox": []}

    def run(self, api):
        st = self.state
        if api.rank == 4:
            if st["step"] <= 0:
                yield api.send(3, "m7", tag=7)   # epoch 1 -> P3's epoch 2
                st["step"] = 1
        elif api.rank == 3:
            if st["step"] <= 0:
                yield api.checkpoint()
                st["step"] = 1
            if st["step"] <= 1:
                yield api.compute(5e-6)
                st["inbox"].append((yield api.recv(4, tag=7)))
                st["step"] = 2
            if st["step"] <= 2:
                st["inbox"].append((yield api.recv(1, tag=10)))
                st["step"] = 3
        elif api.rank == 1:
            if st["step"] <= 0:
                yield api.checkpoint()           # H1^2
                st["step"] = 1
            if st["step"] <= 1:
                st["inbox"].append((yield api.recv(0, tag=8)))
                st["inbox"].append((yield api.recv(2, tag=9)))
                st["step"] = 2
            if st["step"] <= 2:
                yield api.send(3, "m10", tag=10)
                yield api.compute(3e-5)          # failure lands here
                st["step"] = 3
        elif api.rank in (0, 2):
            if st["step"] <= 0:
                yield api.checkpoint()           # H^2 at the senders too
                yield api.compute(4e-6)
                tag = 8 if api.rank == 0 else 9
                yield api.send(1, f"m{tag}", tag=tag)
                st["step"] = 1


class _Fig1Fixture:
    def __init__(self):
        self.world, self.controller = build_ft_world(5, Fig1Program,
                                                     ProtocolConfig())
        self.controller.inject_failure(2.0e-5, 1)
        self.controller.arm()
        self.world.launch()
        self.world.run()


@pytest.fixture(scope="module")
def fig1():
    return _Fig1Fixture()


def test_fig1_rollback_set(fig1):
    rolled = set(fig1.controller.recovery_reports[0].rolled_back)
    assert rolled == {0, 1, 2}


def test_fig1_orphan_receiver_not_rolled_back(fig1):
    assert 3 not in fig1.controller.recovery_reports[0].rolled_back
    assert fig1.world.programs[3].state["inbox"] == ["m7", "m10"]


def test_fig1_logged_sender_not_rolled_back(fig1):
    assert 4 not in fig1.controller.recovery_reports[0].rolled_back
    assert fig1.controller.protocols[4].messages_logged == 1
    (lm,) = fig1.controller.protocols[4].state.logs.values()
    assert lm.payload == "m7" and lm.epoch_send < lm.epoch_recv


def test_fig1_rolled_back_messages_resent_and_suppressed(fig1):
    # P1 re-received m8/m9 after its restore, P3 suppressed the duplicate m10
    assert fig1.world.programs[1].state["inbox"] == ["m8", "m9"]
    suppressed = sum(p.messages_suppressed for p in fig1.controller.protocols)
    assert suppressed >= 1


def test_fig1_everyone_running_afterwards(fig1):
    assert all(p.status is Status.RUNNING for p in fig1.controller.protocols)


# ----------------------------------------------------------------------
# Fig. 2 — the causality problem phases solve
# ----------------------------------------------------------------------
class Fig2Program(RankProgram):
    """Fig. 2's shape: P2 fails after receiving a chain of messages, some
    logged (m0, m2) and some to-be-re-executed; recovery must deliver the
    replayed logged messages without violating the order their causal
    predecessors induce.  P2's reception order is recorded and compared
    against the failure-free run."""

    def __init__(self, rank, size):
        super().__init__(rank, size)
        self.state = {"step": 0, "log": []}

    def run(self, api):
        st = self.state
        if api.rank == 0:
            if st["step"] <= 0:
                yield api.send(2, "m0", tag=20)      # will be logged
                st["step"] = 1
            if st["step"] <= 1:
                yield api.send(1, "m1", tag=21)      # orphan-to-be path
                st["step"] = 2
        elif api.rank == 1:
            if st["step"] <= 0:
                st["log"].append((yield api.recv(0, tag=21)))
                st["step"] = 1
            if st["step"] <= 1:
                yield api.send(2, "m2", tag=22)      # depends on m1; logged
                st["step"] = 2
        elif api.rank == 2:
            if st["step"] <= 0:
                yield api.checkpoint()                # epoch 2 begins
                st["step"] = 1
            if st["step"] <= 1:
                st["log"].append((yield api.recv(0, tag=20)))
                st["log"].append((yield api.recv(1, tag=22)))
                st["log"].append((yield api.recv(3, tag=23)))
                yield api.compute(4e-5)               # failure lands here
                st["step"] = 2
        elif api.rank == 3:
            if st["step"] <= 0:
                yield api.compute(8e-6)
                yield api.send(2, "m6", tag=23)
                st["step"] = 1


def test_fig2_recovery_preserves_reception_content():
    ref_world, _ = build_ft_world(4, Fig2Program, ProtocolConfig())
    ref_world.launch()
    ref_world.run()
    ref_log = ref_world.programs[2].state["log"]

    world, ctl = build_ft_world(4, Fig2Program, ProtocolConfig())
    ctl.inject_failure(3.0e-5, 2)
    ctl.arm()
    world.launch()
    world.run()
    assert world.programs[2].state["log"] == ref_log
    # m0 and m2 were logged (epoch 1 -> epoch 2 crossings)
    logged_payloads = {
        lm.payload
        for proto in ctl.protocols
        for lm in proto.state.logs.values()
    }
    assert {"m0", "m2"} <= logged_payloads
    # P2 restarted alone or nearly: senders of logged messages kept running
    rolled = set(ctl.recovery_reports[0].rolled_back)
    assert 2 in rolled
    assert 0 not in rolled and 1 not in rolled


def test_fig2_phases_ordered_replay():
    """The phase machinery notified multiple phases in increasing order."""
    world, ctl = build_ft_world(4, Fig2Program, ProtocolConfig())
    ctl.inject_failure(3.0e-5, 2)
    ctl.arm()
    world.launch()
    world.run()
    rep = ctl.recovery_reports[0]
    assert rep.phases_notified >= 2


# ----------------------------------------------------------------------
# The NonAck-in-checkpoint necessity (DESIGN.md §7)
# ----------------------------------------------------------------------
class InFlightLoss(RankProgram):
    """Rank 0 checkpoints, sends m to rank 1, then both fail while m is in
    flight: m must be recoverable from rank 0's checkpointed NonAck."""

    def __init__(self, rank, size):
        super().__init__(rank, size)
        self.state = {"step": 0, "got": None}

    def run(self, api):
        st = self.state
        if api.rank == 0:
            if st["step"] <= 0:
                yield api.checkpoint()
                st["step"] = 1
            if st["step"] <= 1:
                yield api.send(1, "precious", tag=1)
                st["step"] = 2
            if st["step"] <= 2:
                yield api.compute(1e-4)
                st["step"] = 3
        else:
            if st["step"] <= 0:
                yield api.compute(2e-5)  # not yet receiving: m stays in flight
                st["step"] = 1
            if st["step"] <= 1:
                st["got"] = yield api.recv(0, tag=1)
                st["step"] = 2


def test_inflight_message_survives_double_failure():
    """Without NonAck in the checkpoint this deadlocks: the send happened
    after rank 0's checkpoint... here it happens *after*, so re-execution
    covers it; the stronger case (send before checkpoint) follows."""
    world, ctl = build_ft_world(2, InFlightLoss, ProtocolConfig())
    ctl.inject_failure(1e-5, 0)
    ctl.inject_failure(1e-5, 1)
    ctl.arm()
    world.launch()
    world.run()
    assert world.programs[1].state["got"] == "precious"


class InFlightLossPreCkpt(RankProgram):
    """The hard case: the send precedes the sender's checkpoint, so
    re-execution does NOT regenerate it; only the checkpointed NonAck can."""

    def __init__(self, rank, size):
        super().__init__(rank, size)
        self.state = {"step": 0, "got": None}

    def run(self, api):
        st = self.state
        if api.rank == 0:
            if st["step"] <= 0:
                yield api.send(1, "precious", tag=1)
                yield api.checkpoint()
                st["step"] = 1
            if st["step"] <= 1:
                yield api.compute(1e-4)
                st["step"] = 2
        else:
            if st["step"] <= 0:
                yield api.compute(2e-5)
                st["step"] = 1
            if st["step"] <= 1:
                st["got"] = yield api.recv(0, tag=1)
                st["step"] = 2


def test_pre_checkpoint_inflight_message_survives_receiver_failure():
    world, ctl = build_ft_world(2, InFlightLossPreCkpt, ProtocolConfig())
    # rank 1 dies while m is STILL IN FLIGHT (network latency ~2.5 us, the
    # failure fires at 1.5 us); rank 0 does NOT re-execute the send (it
    # checkpointed after it): only the NonAck replay can cover it
    ctl.inject_failure(1.5e-6, 1)
    ctl.arm()
    world.launch()
    world.run()
    assert world.programs[1].state["got"] == "precious"
    replayed = sum(p.messages_replayed for p in ctl.protocols)
    assert replayed >= 1
