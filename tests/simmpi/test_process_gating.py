"""Unit tests for how Proc holds a rank: pause/unpause with pending
resumes, and stale resumes of an earlier incarnation."""

from repro.apps.base import RankProgram
from repro.simmpi import World


def test_unpause_flushes_pending_recv_value():
    class P(RankProgram):
        def __init__(self, rank, size):
            super().__init__(rank, size)
            self.state = {"got": None}

        def run(self, api):
            if api.rank == 0:
                yield api.send(1, "late", tag=0)
            else:
                self.state["got"] = yield api.recv(0, tag=0)

    world = World(2, P)
    world.procs[1].pause()
    world.launch()
    world.engine.run(until=1e-3)
    # delivered and matched while paused, but the program never resumed
    assert world.programs[1].state["got"] is None
    world.procs[1].unpause()
    world.run()
    assert world.programs[1].state["got"] == "late"


def test_stale_incarnation_resume_dropped():
    class P(RankProgram):
        def __init__(self, rank, size):
            super().__init__(rank, size)
            self.state = {"steps": 0}

        def run(self, api):
            while self.state["steps"] < 3:
                yield api.compute(1e-5)
                self.state["steps"] += 1

    world = World(1, P)
    world.launch()
    world.engine.run(until=1.5e-5)  # mid-run, one resume in flight
    world.procs[0].reincarnate()
    world.programs[0].restore({"steps": 0})
    world.procs[0].start(world.programs[0].run(world.apis[0]))
    world.run()
    # the stale resume of the old incarnation must not double-advance
    assert world.programs[0].state["steps"] == 3
