"""Protocol mechanics observed through small simulated worlds: epoch
bookkeeping, the logging rule, phase propagation, acknowledgements."""

import numpy as np
import pytest

from repro.apps.base import RankProgram
from repro.core import ProtocolConfig, build_ft_world
from repro.core.protocol import Status
from repro.core.state import SentMessage


class TwoPhase(RankProgram):
    """Rank 0: send, checkpoint, send.  Rank 1: recv both, checkpointing in
    between per the scenario flags."""

    def __init__(self, rank, size, receiver_ckpt=False):
        super().__init__(rank, size)
        self.receiver_ckpt = receiver_ckpt
        self.state = {"stage": 0, "got": []}

    def run(self, api):
        if api.rank == 0:
            yield api.send(1, "before", tag=1)
            yield api.checkpoint()
            yield api.send(1, "after", tag=2)
        elif api.rank == 1:
            self.state["got"].append((yield api.recv(0, tag=1)))
            if self.receiver_ckpt:
                yield api.checkpoint()
            self.state["got"].append((yield api.recv(0, tag=2)))


def run_two_phase(receiver_ckpt):
    world, ctl = build_ft_world(
        2, lambda r, s: TwoPhase(r, s, receiver_ckpt=receiver_ckpt)
    )
    world.launch()
    world.run()
    return world, ctl


def test_replay_puts_a_copy_of_the_retained_payload_on_the_wire():
    # the receiver owns a delivered buffer and may write into it, so a
    # replay must not hand it the sender's log entry
    world, ctl = run_two_phase(receiver_ckpt=False)
    proto = ctl.protocols[0]
    logged = SentMessage(dst=1, tag=1, payload=np.arange(4.0), size=32,
                         date=99, epoch_send=1, phase_send=1, epoch_recv=2)
    sent = []
    world.transmit_app = sent.append
    proto._replay(logged)
    (env,) = sent
    assert env.payload is not logged.payload
    env.payload[0] = 123.0                      # the receiver's write
    assert logged.payload.tolist() == [0.0, 1.0, 2.0, 3.0]
    # the replayed record re-enters NonAck unchanged: one copy per replay
    assert proto.state.non_ack[(1, 99)] is logged
    assert logged.epoch_recv == 2


def test_message_to_higher_epoch_is_logged():
    # Receiver checkpoints between the receives: the second message goes
    # from sender epoch 2 to receiver epoch 2 (no crossing) but the FIRST
    # message scenario: sender epoch 1 -> receiver epoch 1 (no log).  Use
    # the reverse: sender checkpoints first, so "before" is acked from a
    # *later* receiver epoch only if the receiver checkpointed first.
    world, ctl = run_two_phase(receiver_ckpt=True)
    p0 = ctl.protocols[0]
    # "after" was sent in epoch 2 and received in receiver epoch 2 -> SPE;
    # "before" sent in epoch 1, could be acked from epoch 1 (no log) since
    # the receiver acks immediately on delivery.
    assert p0.state.epoch == 2
    assert ctl.protocols[1].state.epoch == 2


class CrossEpoch(RankProgram):
    """Rank 1 checkpoints FIRST, then rank 0 sends: epoch 1 -> epoch 2
    crossing, so the message must be logged at the sender."""

    def __init__(self, rank, size):
        super().__init__(rank, size)
        self.state = {"done": False}

    def run(self, api):
        if api.rank == 0:
            # wait until rank 1 checkpointed (virtual time barrier)
            yield api.compute(1e-3)
            yield api.send(1, "cross", tag=1)
        else:
            yield api.checkpoint()
            yield api.recv(0, tag=1)
        self.state["done"] = True


def test_epoch_crossing_message_logged_at_sender():
    world, ctl = build_ft_world(2, CrossEpoch)
    world.launch()
    world.run()
    p0 = ctl.protocols[0]
    assert p0.messages_logged == 1
    (lm,) = p0.state.logs.values()
    assert lm.epoch_send == 1 and lm.epoch_recv == 2
    assert lm.payload == "cross"
    # and the receiver's phase jumped past the message's phase (+1 rule)
    assert ctl.protocols[1].state.phase >= 2


def test_same_epoch_message_not_logged():
    world, ctl = build_ft_world(2, lambda r, s: TwoPhase(r, s))
    world.launch()
    world.run()
    assert ctl.protocols[0].messages_logged == 0
    assert ctl.protocols[0].state.spe[1].recv_epoch.get(1) == 1


def test_acks_clear_non_ack():
    world, ctl = build_ft_world(2, lambda r, s: TwoPhase(r, s))
    world.launch()
    world.run()
    assert ctl.protocols[0].state.non_ack == {}
    assert ctl.protocols[0].acks_sent == 0  # rank 0 receives nothing
    assert ctl.protocols[1].acks_sent == 2


def test_dates_count_sends_only():
    world, ctl = build_ft_world(2, lambda r, s: TwoPhase(r, s))
    world.launch()
    world.run()
    assert ctl.protocols[0].state.date == 2  # two sends
    assert ctl.protocols[1].state.date == 0  # receives do not advance dates


def test_checkpoint_records_epoch_start_date():
    world, ctl = build_ft_world(2, lambda r, s: TwoPhase(r, s))
    world.launch()
    world.run()
    spe = ctl.protocols[0].state.spe
    assert spe[1].start_date == 0
    assert spe[2].start_date == 1  # one message sent before the checkpoint


def test_initial_checkpoints_taken_at_bind():
    world, ctl = build_ft_world(2, lambda r, s: TwoPhase(r, s))
    assert ctl.store.count() == 2
    assert ctl.store.get(0, 1).epoch == 1


def test_store_has_checkpoint_per_epoch():
    world, ctl = build_ft_world(2, lambda r, s: TwoPhase(r, s))
    world.launch()
    world.run()
    assert ctl.store.epochs(0) == [1, 2]


def test_cluster_initial_epochs_spacing():
    cfg = ProtocolConfig(cluster_of=[0, 0, 1, 1, 2, 2])
    world, ctl = build_ft_world(6, lambda r, s: TwoPhase(r, s) if r < 2 else
                                IdleProg(r, s), cfg)
    assert [p.state.epoch for p in ctl.protocols] == [1, 1, 3, 3, 5, 5]


class IdleProg(RankProgram):
    def run(self, api):
        yield api.compute(1e-6)


def test_explicit_cluster_epochs_override():
    cfg = ProtocolConfig(cluster_of=[0, 1], cluster_epochs={0: 9, 1: 1})
    world, ctl = build_ft_world(2, IdleProg, cfg)
    assert ctl.protocols[0].state.epoch == 9
    assert ctl.protocols[1].state.epoch == 1


def test_statuses_start_running():
    world, ctl = build_ft_world(2, IdleProg)
    assert all(p.status is Status.RUNNING for p in ctl.protocols)


def test_logging_disabled_flag():
    cfg = ProtocolConfig(log_cross_epoch=False)
    world, ctl = build_ft_world(2, CrossEpoch, cfg)
    world.launch()
    world.run()
    assert ctl.protocols[0].messages_logged == 0
    # the crossing message lands in SPE instead
    assert ctl.protocols[0].state.spe[1].recv_epoch.get(1) == 2


def test_logging_stats_aggregate():
    world, ctl = build_ft_world(2, CrossEpoch)
    world.launch()
    world.run()
    stats = ctl.logging_stats()
    assert stats["messages_total"] == 1
    assert stats["messages_logged"] == 1
    assert stats["log_fraction"] == 1.0


# ----------------------------------------------------------------------
# The eager ack record's wire size is a constant
# ----------------------------------------------------------------------
@pytest.mark.parametrize("dup", [False, True])
@pytest.mark.parametrize("value", [0, 1, 255, 2**31, 2**40])
def test_ack_record_size_constant_equals_the_sizer(dup, value):
    from repro.core.protocol import _ACK_RECORD_NBYTES
    from repro.simmpi.message import payload_nbytes

    record = {"date": value, "epoch_send": value, "epoch_recv": value,
              "dup": dup}
    assert _ACK_RECORD_NBYTES == payload_nbytes(record) == 75


def test_every_ack_on_the_wire_has_the_size_the_sizer_gives():
    # fresh and duplicate acks of a run with a recovery: the ack lane is
    # handed the constant, and arrival times depend on the size
    from repro.apps import Stencil2D
    from repro.simmpi.message import payload_nbytes

    config = ProtocolConfig(checkpoint_interval=3e-5, rank_stagger=1e-6)
    world, ctl = build_ft_world(
        4, lambda r, s: Stencil2D(r, s, niters=20, block=3), config)
    acks = []
    transmit_ack = world.network.transmit_ack

    def spy(src, dst, record, size):
        acks.append((record, size))
        return transmit_ack(src, dst, record, size)

    world.network.transmit_ack = spy
    ctl.inject_failure(1e-4, 3)
    ctl.arm()
    world.launch()
    world.run()
    assert {record["dup"] for record, _ in acks} == {False, True}
    assert all(size == payload_nbytes(record) for record, size in acks)
