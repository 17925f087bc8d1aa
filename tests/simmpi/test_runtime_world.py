"""Unit tests for World-level behaviour not covered elsewhere."""

import pytest

from repro.apps.base import RankProgram
from repro.errors import DeadlockError, ReproError, SimulationError
from repro.simmpi import World
from repro.simmpi.message import CONTROL_TAG_BASE, Envelope


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
