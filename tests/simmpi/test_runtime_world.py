"""Unit tests for World-level behaviour not covered elsewhere."""

import pytest

from repro.apps.base import RankProgram
from repro.errors import DeadlockError, ReproError, SimulationError
from repro.simmpi import World
from repro.simmpi.message import CONTROL_TAG_BASE, Envelope
from repro.simmpi.process import ProtocolHook


class Quick(RankProgram):
    def run(self, api):
        yield api.compute(1e-6)


def test_all_done_flag():
    world = World(2, Quick)
    assert not world.all_done
    world.launch()
    world.run()
    assert world.all_done


def test_restarted_finished_rank_runs_to_completion_again():
    world = World(1, Quick)
    world.launch()
    world.run()
    assert world.all_done
    proc = world.procs[0]
    proc.reincarnate()
    assert not world.all_done
    world.programs[0].restore({})
    proc.start(world.programs[0].run(world.apis[0]))
    world.run()
    assert world.all_done


def test_transmit_control_requires_control_tag():
    world = World(2, Quick)
    with pytest.raises(SimulationError):
        world.transmit_control(Envelope(src=0, dst=1, tag=5, payload={}))
    world.transmit_control(
        Envelope(src=0, dst=1, tag=CONTROL_TAG_BASE - 1, payload={})
    )


def test_run_until_leaves_programs_unfinished():
    class Slow(RankProgram):
        def run(self, api):
            yield api.compute(1.0)

    world = World(2, Slow)
    world.launch()
    world.run(until=0.5)                # ``until`` skips the deadlock check
    assert not world.all_done
    world.run()
    assert world.all_done


def test_error_hierarchy():
    assert issubclass(DeadlockError, SimulationError)
    assert issubclass(SimulationError, ReproError)
    err = DeadlockError("stuck", {0: "recv"})
    assert err.blocked == {0: "recv"}
    assert DeadlockError("stuck").blocked == {}


# ----------------------------------------------------------------------
# The ack lane: records to the destination's sink, through its Proc
# ----------------------------------------------------------------------
class AckLog(ProtocolHook):
    def __init__(self):
        self.acks = []

    def on_ack(self, src, record):
        self.acks.append((src, record))


def ack_world():
    hooks = [AckLog(), AckLog()]
    return World(2, Quick, hook_factory=hooks.__getitem__), hooks


def test_an_ack_lands_in_the_hook_of_its_destination():
    world, hooks = ack_world()
    world.network.transmit_ack(0, 1, {"date": 1}, 75)
    world.network.transmit_ack(0, 1, [{"date": 2}, {"date": 3}], 99)
    world.run(until=1.0)
    assert hooks[1].acks == [(0, {"date": 1}), (0, [{"date": 2}, {"date": 3}])]
    assert hooks[0].acks == []
    assert (world.network.messages_delivered, world.network.bytes_sent) == (2, 174)


def test_an_ack_whose_destination_dies_in_flight_is_purged():
    world, hooks = ack_world()
    world.network.transmit_ack(0, 1, {"date": 1}, 75)
    assert world.network.in_flight_count(1) == 1
    world.procs[1].kill()
    assert world.network.in_flight_count(1) == 0 and world.engine.pending == 0
    world.run(until=1.0)
    assert hooks[1].acks == []
    network = world.network
    assert (network.messages_sent, network.messages_delivered,
            network.messages_dropped) == (1, 0, 1)


def test_an_ack_sent_to_a_dead_rank_is_discarded_by_its_sink():
    world, hooks = ack_world()
    world.procs[1].kill()
    world.network.transmit_ack(0, 1, {"date": 1}, 75)
    world.run(until=1.0)
    assert hooks[1].acks == []
    network = world.network
    assert (network.messages_delivered, network.messages_dropped) == (1, 0)
