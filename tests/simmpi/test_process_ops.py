"""Unit tests for process operations (send/recv/compute/checkpoint/now)."""

import numpy as np
import pytest

from repro.apps.base import RankProgram
from repro.errors import DeadlockError, SimulationError
from repro.simmpi import ANY_SOURCE, ANY_TAG, World


class Script(RankProgram):
    """Runs a rank-indexed generator function from ``bodies``."""

    bodies = {}

    def __init__(self, rank, size):
        super().__init__(rank, size)
        self.state = {"out": []}

    def run(self, api):
        body = self.bodies.get(api.rank)
        if body is None:
            return
            yield  # pragma: no cover
        yield from body(api, self.state["out"])


def run_script(nprocs, bodies, **kw):
    cls = type("S", (Script,), {"bodies": bodies})
    world = World(nprocs, cls, **kw)
    world.launch()
    world.run()
    return world


def test_blocking_send_recv():
    def p0(api, out):
        yield api.send(1, "hello", tag=3)

    def p1(api, out):
        msg = yield api.recv(0, tag=3)
        out.append(msg)

    w = run_script(2, {0: p0, 1: p1})
    assert w.programs[1].state["out"] == ["hello"]


def test_any_source_any_tag():
    def sender(api, out):
        yield api.send(2, api.rank * 10, tag=api.rank)

    def p2(api, out):
        a = yield api.recv(ANY_SOURCE, ANY_TAG)
        b = yield api.recv(ANY_SOURCE, ANY_TAG)
        out.extend(sorted([a, b]))

    w = run_script(3, {0: sender, 1: sender, 2: p2})
    assert w.programs[2].state["out"] == [0, 10]


def test_tag_matching_skips_unexpected():
    def p0(api, out):
        yield api.send(1, "first", tag=1)
        yield api.send(1, "second", tag=2)

    def p1(api, out):
        b = yield api.recv(0, tag=2)
        a = yield api.recv(0, tag=1)
        out.extend([a, b])

    w = run_script(2, {0: p0, 1: p1})
    assert w.programs[1].state["out"] == ["first", "second"]


def test_compute_advances_clock():
    def p0(api, out):
        t0 = yield api.now()
        yield api.compute(1e-3)
        t1 = yield api.now()
        out.append(t1 - t0)

    w = run_script(1, {0: p0})
    assert w.programs[0].state["out"][0] == pytest.approx(1e-3)


def test_negative_compute_rejected():
    def p0(api, out):
        yield api.compute(-1.0)

    with pytest.raises(SimulationError):
        run_script(1, {0: p0})


def test_deadlock_detection_reports_blocked():
    def p0(api, out):
        yield api.recv(1, tag=0)  # never sent

    def p1(api, out):
        return
        yield

    with pytest.raises(DeadlockError) as exc:
        run_script(2, {0: p0, 1: p1})
    assert 0 in exc.value.blocked
    assert "recv" in exc.value.blocked[0]


def test_block_descriptions_are_formatted_on_demand():
    # the text is built when asked for, from the driver's own state: done,
    # dead, paused, the waiting receive, or runnable (a rank inside a
    # compute or a checkpoint write has its resume queued)
    from repro.simmpi.process import ProtocolHook

    class Hook(ProtocolHook):
        def on_checkpoint(self):
            return 2.5e-3                       # a checkpoint write stalls

    def recv(api, out):
        yield api.recv(5, tag=7)                # never sent

    def never_started(api, out):
        yield api.compute(1.0)

    def killed(api, out):
        yield api.recv(0, tag=3)                # dies while waiting

    def compute(api, out):
        yield api.compute(1.5)

    def checkpoint(api, out):
        yield api.checkpoint()

    bodies = {0: recv, 1: never_started, 2: killed, 3: compute, 4: checkpoint}
    cls = type("S", (Script,), {"bodies": bodies})
    world = World(6, cls, hook_factory=lambda rank: Hook())
    world.procs[1].pause()                      # parked before its first step
    world.launch()
    world.run(until=1e-3)
    world.procs[2].kill()
    assert [p.describe_block() for p in world.procs] == [
        "recv(src=5, tag=7)",
        "paused",
        "dead",
        "runnable",
        "runnable",
        "done",
    ]
    with pytest.raises(DeadlockError) as exc:
        world.run()
    assert str(exc.value) == "simulation quiesced with 3 unfinished ranks"
    assert exc.value.blocked == {
        0: "recv(src=5, tag=7)", 1: "paused", 2: "dead",
    }


def test_negative_app_tag_rejected():
    def p0(api, out):
        yield api.send(1, 1, tag=-2_000_000)

    def p1(api, out):
        yield api.recv(0, tag=-2_000_000)

    with pytest.raises(SimulationError):
        run_script(2, {0: p0, 1: p1})


def test_unexpected_queue_buffers_early_messages():
    def p0(api, out):
        for i in range(5):
            yield api.send(1, i, tag=0)

    def p1(api, out):
        yield api.compute(1e-3)  # let the messages pile up
        for _ in range(5):
            out.append((yield api.recv(0, tag=0)))

    w = run_script(2, {0: p0, 1: p1})
    assert w.programs[1].state["out"] == list(range(5))


def test_payload_copied_on_send_when_opted_in():
    # defensive mode for buffer-recycling programs: mutable payloads are
    # copied at send time, so post-send mutation is invisible downstream
    def p0(api, out):
        buf = np.zeros(4)
        yield api.send(1, buf, tag=0)
        buf[:] = 99.0  # mutate after send: receiver must not see it

    def p1(api, out):
        data = yield api.recv(0, tag=0)
        out.append(data.copy())

    w = run_script(2, {0: p0, 1: p1}, copy_payloads=True)
    np.testing.assert_array_equal(w.programs[1].state["out"][0], np.zeros(4))


def test_payload_zero_copy_by_default():
    # the default is zero-copy: the receiver observes the sender's buffer
    # object itself, so programs must hand fresh buffers to send() (all the
    # bundled apps do); the FT layer copies on log entry, not on send
    def p0(api, out):
        buf = np.zeros(4)
        out.append(buf)
        yield api.send(1, buf, tag=0)

    def p1(api, out):
        data = yield api.recv(0, tag=0)
        out.append(data)

    w = run_script(2, {0: p0, 1: p1})
    sent = w.programs[0].state["out"][0]
    received = w.programs[1].state["out"][0]
    assert received is sent


def test_message_counters():
    def p0(api, out):
        yield api.send(1, 1, tag=0)
        yield api.send(1, 2, tag=0)

    def p1(api, out):
        yield api.recv(0, tag=0)
        yield api.recv(0, tag=0)

    w = run_script(2, {0: p0, 1: p1})
    assert w.procs[0].app_messages_sent == 2


def test_maybe_checkpoint_defaults_to_not_taken():
    def p0(api, out):
        taken = yield api.maybe_checkpoint()
        out.append(taken)

    w = run_script(1, {0: p0})
    assert w.programs[0].state["out"] == [False]


def test_forced_checkpoint_returns_true():
    def p0(api, out):
        taken = yield api.checkpoint()
        out.append(taken)

    w = run_script(1, {0: p0})
    assert w.programs[0].state["out"] == [True]


def test_pause_defers_execution():
    world_holder = {}

    def p0(api, out):
        yield api.compute(1e-6)
        out.append("ran")

    cls = type("S", (Script,), {"bodies": {0: p0}})
    world = World(1, cls)
    world_holder["w"] = world
    world.procs[0].pause()
    world.launch()
    world.engine.run(until=1.0)
    assert world.programs[0].state["out"] == []
    world.procs[0].unpause()
    world.run()
    assert world.programs[0].state["out"] == ["ran"]


def test_reincarnate_clears_queues():
    def p0(api, out):
        yield api.send(1, 1, tag=0)

    def p1(api, out):
        yield api.compute(1.0)

    cls = type("S", (Script,), {"bodies": {0: p0, 1: p1}})
    world = World(2, cls)
    world.launch()
    world.run()
    proc = world.procs[1]
    assert len(proc.unexpected) == 1
    inc = proc.incarnation
    proc.reincarnate()
    assert len(proc.unexpected) == 0
    assert proc.incarnation == inc + 1


def test_world_requires_at_least_one_rank():
    with pytest.raises(SimulationError):
        World(0, lambda r, s: None)
