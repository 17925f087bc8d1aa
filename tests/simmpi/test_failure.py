"""Unit tests for the failure injector."""

import pytest

from repro.apps.base import RankProgram
from repro.errors import ConfigError
from repro.simmpi import World
from repro.simmpi.failure import FailureInjector


class Idle(RankProgram):
    def run(self, api):
        yield api.compute(1.0)


def make_world(n=4):
    world = World(n, Idle)
    world.launch()
    return world


def test_failure_fires_at_time():
    world = make_world()
    seen = []
    inj = FailureInjector(world, lambda ranks: seen.append((world.engine.now, ranks)))
    inj.at(0.5, 2)
    inj.arm()
    world.engine.run(until=2.0)
    assert seen == [(0.5, [2])]
    assert [e.rank for e in inj.fired] == [2]


def test_concurrent_failures_batched():
    world = make_world()
    seen = []
    inj = FailureInjector(world, lambda ranks: seen.append(list(ranks)))
    inj.at(0.5, 3)
    inj.at(0.5, 1)
    inj.arm()
    world.engine.run(until=2.0)
    assert seen == [[1, 3]]  # sorted, single batch


def test_duplicate_rank_same_time_deduped():
    world = make_world()
    seen = []
    inj = FailureInjector(world, lambda ranks: seen.append(list(ranks)))
    inj.at(0.5, 1)
    inj.at(0.5, 1)
    inj.arm()
    world.engine.run(until=2.0)
    assert seen == [[1]]


def test_dead_rank_not_refailed():
    world = make_world()
    calls = []

    def handler(ranks):
        calls.append(list(ranks))
        for r in ranks:
            world.procs[r].kill()

    inj = FailureInjector(world, handler)
    inj.at(0.4, 2)
    inj.at(0.6, 2)  # already dead by then
    inj.arm()
    world.engine.run(until=2.0)
    assert calls == [[2]]


def test_out_of_range_rank_rejected():
    world = make_world()
    inj = FailureInjector(world, lambda ranks: None)
    with pytest.raises(ConfigError):
        inj.at(0.5, 99)


def test_kill_purges_inbound():
    world = make_world(2)
    # schedule a message in flight to rank 1, then kill rank 1 before arrival
    from repro.simmpi.message import Envelope

    world.engine.schedule(0.0, lambda: world.network.transmit(
        Envelope(src=0, dst=1, tag=0, payload=1)))
    world.engine.schedule(1e-9, lambda: world.procs[1].kill())
    world.engine.run(until=1.0)
    assert world.network.messages_dropped >= 1
    assert not world.procs[1].alive


def test_after_sends_deterministic_placement():
    """after_sends kills the rank right after its Nth application send,
    regardless of the timing model."""
    from repro.apps.stencil import Stencil1D
    from repro.core import ProtocolConfig, build_ft_world

    killed_at = []

    def run():
        world, ctl = build_ft_world(
            4, lambda r, s: Stencil1D(r, s, niters=10, cells=3),
            ProtocolConfig(checkpoint_interval=2e-5, rank_stagger=2e-6),
        )
        assert ctl.injector is not None
        ctl.injector.after_sends(2, 7)
        world.launch()
        world.run()
        killed_at.append(tuple(e.rank for e in ctl.injector.fired))
        return world

    world = run()
    assert killed_at[-1] == (2,)
    assert world.all_done


def test_after_sends_validations():
    world = make_world(2)
    inj = FailureInjector(world, lambda ranks: None)
    with pytest.raises(ConfigError):
        inj.after_sends(9, 1)
    with pytest.raises(ConfigError):
        inj.after_sends(0, 0)


def test_near_equal_times_grouped_into_one_round():
    """Failure times that differ by float-arithmetic noise (a few ulps)
    are one concurrent round — exact equality is not required."""
    world = make_world()
    seen = []
    inj = FailureInjector(world, lambda ranks: seen.append(list(ranks)))
    base = 0.1 + 0.2  # 0.30000000000000004
    inj.at(base, 1)
    inj.at((base * 3.0) / 3.0, 3)  # intended-equal, lands ulps away
    inj.arm()
    world.engine.run(until=2.0)
    assert seen == [[1, 3]]


def test_distinct_times_stay_separate_rounds():
    world = make_world()
    seen = []
    inj = FailureInjector(world, lambda ranks: seen.append(list(ranks)))
    inj.at(0.5, 1)
    inj.at(0.5 + 1e-6, 3)  # a real gap, far above the quantum
    inj.arm()
    world.engine.run(until=2.0)
    assert seen == [[1], [3]]


def test_concurrent_recovery_line_accounts_for_both_ranks():
    """Regression: two kills within the quantum must reach the controller
    as ONE batch, so the recovery line of that single round accounts for
    both ranks (exact-float batching used to split them into two rounds)."""
    from repro.apps.stencil import Stencil1D
    from repro.core import ProtocolConfig, build_ft_world

    world, ctl = build_ft_world(
        4, lambda r, s: Stencil1D(r, s, niters=12, cells=3),
        ProtocolConfig(checkpoint_interval=2e-5, rank_stagger=2e-6),
    )
    assert ctl.injector is not None
    t = 4.5e-5
    ctl.injector.at(t, 1)
    ctl.injector.at((t * 3.0) / 3.0 + 1e-16, 3)  # arithmetic noise
    ctl.injector.arm()
    world.launch()
    world.run()
    assert len(ctl.recovery_reports) == 1
    report = ctl.recovery_reports[0]
    assert sorted(report.failed) == [1, 3]
    assert set(report.recovery_line) >= {1, 3}
    assert world.all_done


def test_after_sends_tap_fires_once():
    """A tap fires once; the rank then stops calling back, so its later
    sends (the restarted rank re-sends past the threshold) kill nothing."""
    from repro.apps.stencil import Stencil1D
    from repro.core import ProtocolConfig, build_ft_world

    world, ctl = build_ft_world(
        4, lambda r, s: Stencil1D(r, s, niters=10, cells=3),
        ProtocolConfig(checkpoint_interval=2e-5, rank_stagger=2e-6),
    )
    assert ctl.injector is not None
    ctl.injector.after_sends(2, 5)
    assert world.procs[2].send_tap is not None  # tap installed
    world.launch()
    world.run()
    assert world.procs[2].send_tap is None  # fired -> no more callbacks
    assert [e.rank for e in ctl.injector.fired] == [2]


def test_multiple_after_sends_taps_compose():
    """Several (rank, nsends) taps each fire independently."""
    from repro.apps.stencil import Stencil1D
    from repro.core import ProtocolConfig, build_ft_world

    world, ctl = build_ft_world(
        4, lambda r, s: Stencil1D(r, s, niters=14, cells=3),
        ProtocolConfig(checkpoint_interval=2e-5, rank_stagger=2e-6),
    )
    assert ctl.injector is not None
    ctl.injector.after_sends(1, 4)
    ctl.injector.after_sends(2, 9)
    world.launch()
    world.run()
    assert sorted(e.rank for e in ctl.injector.fired) == [1, 2]
    assert world.all_done


def test_after_sends_fires_at_exact_send_count():
    """The kill lands right after the Nth send, not one message later
    (off-by-one regression: the counter increments after transmit)."""
    world = make_world()
    counts = []

    class CountingHandler:
        def __call__(self, ranks):
            counts.append(world.procs[ranks[0]].app_messages_sent)

    # drive sends through a real app world instead
    from repro.apps.stencil import Stencil1D
    from repro.core import ProtocolConfig, build_ft_world

    world2, ctl = build_ft_world(
        4, lambda r, s: Stencil1D(r, s, niters=10, cells=3),
        ProtocolConfig(checkpoint_interval=2e-5, rank_stagger=2e-6),
    )
    assert ctl.injector is not None
    fired_counts = []
    orig_fire = ctl.injector._fire

    def spy(ranks, time):
        fired_counts.append(world2.procs[ranks[0]].app_messages_sent)
        orig_fire(ranks, time)

    ctl.injector._fire = spy
    ctl.injector.after_sends(2, 6)
    world2.launch()
    world2.run()
    assert fired_counts == [6]


class SendAfterPause(RankProgram):
    """Rank 0 computes, then sends rank 1 one message."""

    def run(self, api):
        yield api.compute(1e-3)
        if self.rank == 0:
            yield api.send(1, b"app", tag=5)
        else:
            yield api.recv(0, 5)


def test_after_sends_does_not_count_a_replay():
    """A protocol replay reaches the wire without ``Proc._emit``, so it is
    not an application send: it must not fire a kill placed after rank 0's
    first send (the tap used to count it, landing one send early)."""
    from repro.simmpi.message import Envelope

    world = World(2, SendAfterPause)
    kills = []
    injector = FailureInjector(world, lambda ranks: kills.append(
        (ranks, world.engine.now, world.procs[0].app_messages_sent)))
    injector.after_sends(0, 1)
    world.launch()
    # a replay of rank 0, put on the wire the way the protocols do
    replay = Envelope(0, 1, 5, b"replay", uid=world.next_uid())
    replay.meta["replayed"] = True
    world.transmit_app(replay)
    world.run()
    assert [(ranks, sent) for ranks, _, sent in kills] == [([0], 1)]
    assert kills[0][1] >= 1e-3  # after the application send, not the replay
