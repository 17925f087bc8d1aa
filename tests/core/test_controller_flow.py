"""Controller and recovery-process flow tests: drain, settle, rounds,
watchdog, lightweight-mode guards."""

import pytest

from repro.apps.stencil import Stencil1D
from repro.core import ProtocolConfig, build_ft_world
from repro.core.controller import FTController
from repro.core.protocol import Status
from repro.core.state import SentMessage
from repro.errors import ProtocolError
from repro.simmpi.network import Network


def factory(rank, size):
    return Stencil1D(rank, size, niters=25, cells=4)


def test_cluster_map_length_validated():
    with pytest.raises(ProtocolError):
        FTController(4, ProtocolConfig(cluster_of=[0, 1]))


def test_lightweight_restore_rejected():
    world, ctl = build_ft_world(4, factory, ProtocolConfig(lightweight=True))
    with pytest.raises(ProtocolError):
        ctl.restore_rank(0, 1)


def test_lightweight_skips_checkpoint_storage():
    cfg = ProtocolConfig(checkpoint_interval=2e-5, lightweight=True)
    world, ctl = build_ft_world(4, factory, cfg)
    world.launch()
    world.run()
    assert ctl.store.checkpoints_taken > 0
    assert ctl.store.count() == 0  # counted but not stored


def test_retain_payloads_off_keeps_counts():
    cfg = ProtocolConfig(lightweight=True, retain_payloads=False,
                         checkpoint_interval=2e-5, rank_stagger=2e-6)
    world, ctl = build_ft_world(4, factory, cfg)
    world.launch()
    world.run()
    stats = ctl.logging_stats()
    assert stats["messages_total"] > 0
    for proto in ctl.protocols:
        for lm in proto.state.logs.values():
            assert lm.payload is None
            assert lm.size > 0


def test_recovery_round_numbers_monotone():
    cfg = ProtocolConfig(checkpoint_interval=2e-5, rank_stagger=3e-6)
    world, ctl = build_ft_world(6, factory, cfg)
    ctl.inject_failure(4e-5, 1)
    ctl.inject_failure(9e-5, 4)
    ctl.arm()
    world.launch()
    world.run()
    rounds = [r.round_no for r in ctl.recovery_reports]
    assert rounds == sorted(rounds) == list(dict.fromkeys(rounds))


def test_failed_rank_restored_to_latest_checkpoint():
    cfg = ProtocolConfig(checkpoint_interval=2e-5, rank_stagger=3e-6)
    world, ctl = build_ft_world(6, factory, cfg)
    ctl.inject_failure(7e-5, 2)
    ctl.arm()
    world.launch()
    world.run()
    rl = ctl.recovery_reports[0].recovery_line
    # the failed rank restarted at (or below) its last checkpoint epoch
    assert rl[2][0] >= 1


def test_recovery_report_timing():
    cfg = ProtocolConfig(checkpoint_interval=2e-5, rank_stagger=3e-6)
    world, ctl = build_ft_world(6, factory, cfg)
    ctl.inject_failure(6e-5, 3)
    ctl.arm()
    world.launch()
    world.run()
    rep = ctl.recovery_reports[0]
    assert rep.started_at >= 6e-5
    assert rep.finished_at > rep.started_at


def test_no_watchdog_interventions_on_single_failures():
    cfg = ProtocolConfig(checkpoint_interval=2e-5, rank_stagger=3e-6)
    world, ctl = build_ft_world(6, factory, cfg)
    ctl.inject_failure(6e-5, 0)
    ctl.arm()
    world.launch()
    world.run()
    assert ctl.stall_flushes == 0
    assert ctl.stall_releases == 0


def test_statuses_and_queues_clean_after_recovery():
    cfg = ProtocolConfig(checkpoint_interval=2e-5, rank_stagger=3e-6)
    world, ctl = build_ft_world(6, factory, cfg)
    ctl.inject_failure(6e-5, 3)
    ctl.arm()
    world.launch()
    world.run()
    for proto in ctl.protocols:
        assert proto.status is Status.RUNNING
        assert proto.replay == {}
        assert proto._orph_lookup == {}  # every expected orphan arrived
    assert not ctl.recovery.active
    assert world.network.in_flight_count() == 0


def _record_deliveries(monkeypatch, after=None):
    """The arrival instant of every delivery, envelopes and acks alike;
    ``after(network)`` runs once each delivery is done."""
    arrivals = []
    for name in ("_deliver", "_deliver_ack"):
        def deliver(self, item, _deliver=getattr(Network, name)):
            arrivals.append(self.engine.now)
            _deliver(self, item)
            if after is not None:
                after(self)
        monkeypatch.setattr(Network, name, deliver)
    return arrivals


def test_round_starts_when_the_last_message_in_flight_lands(monkeypatch):
    """The drain ends with the delivery that empties the network: a round
    starts at the arrival of the last message or ack in flight after the
    kill (acks of deliveries to paused ranks included), not later."""
    arrivals = _record_deliveries(monkeypatch)
    cfg = ProtocolConfig(checkpoint_interval=2e-5, rank_stagger=3e-6)
    world, ctl = build_ft_world(6, factory, cfg)
    ctl.inject_failure(6e-5, 3)
    ctl.arm()
    world.launch()
    world.run()
    started = ctl.recovery_reports[0].started_at
    drain = [t for t in arrivals if 6e-5 < t <= started]
    assert drain, "messages were in flight at the kill"
    assert started == max(drain)


def test_round_settles_when_the_last_protocol_is_running(monkeypatch):
    """A queued round starts, and each round's watchdog is cancelled, at
    the instant the last protocol is Running with an empty replay queue."""
    holder = []
    settled_at = []  # per round: the first such instant after its exchange

    def check(network):
        ctl = holder[0]
        if (ctl._round_in_progress and not ctl.recovery.active
                and len(settled_at) < len(ctl.recovery_reports)
                and all(p.status is Status.RUNNING and not p.replay
                        for p in ctl.protocols)):
            settled_at.append(network.engine.now)

    _record_deliveries(monkeypatch, after=check)
    cfg = ProtocolConfig(checkpoint_interval=2e-5, rank_stagger=3e-6)
    world, ctl = build_ft_world(6, factory, cfg)
    holder.append(ctl)
    starts, cancels = [], []
    start_round = ctl._start_round
    ctl._start_round = lambda ranks: (starts.append(world.engine.now),
                                      start_round(ranks))
    cancel = world.engine.cancel
    world.engine.cancel = lambda *at: (
        at == ctl._watchdog and cancels.append(world.engine.now), cancel(*at))[1]
    ctl.inject_failure(6e-5, 3)
    ctl.inject_failure(6.5e-5, 1)  # queued behind round 1
    ctl.arm()
    world.launch()
    world.run()
    assert len(ctl.recovery_reports) == 2
    assert ctl.stall_flushes == ctl.stall_releases == 0
    assert starts == [6e-5, settled_at[0]]
    assert cancels == settled_at


def test_a_protocol_reports_running_with_an_empty_replay_queue():
    """Once per entry into that state, however it gets there: released
    with nothing left to replay, or already Running when its last replay
    goes out (a rolled-back rank is released one phase early, so a
    replay of its registered phase can outlive the release)."""
    world, ctl = build_ft_world(2, factory, ProtocolConfig())
    notices = []
    ctl.protocol_settled = lambda: notices.append(proto.rank)
    proto = ctl.protocols[0]

    def entry(date, phase):
        return (date, SentMessage(1, 0, ("m", date), 8, date, 1, phase))

    proto.status, proto._reported_phase = Status.ROLLED_BACK, 2
    proto.replay = {2: [entry(5, 2)], 3: [entry(6, 3)]}
    proto._on_ready_phase({"phase": 1})  # released, two replays queued
    assert proto.status is Status.RUNNING and notices == []
    proto._on_ready_phase({"phase": 2})  # one replay left
    assert notices == []
    proto._on_ready_phase({"phase": 3})  # the last one goes out
    assert proto.replay == {} and notices == [0]
    proto._on_ready_phase({"phase": 4})  # nothing left to empty
    proto.flush_replays()
    assert notices == [0]

    proto.status, proto._reported_phase = Status.BLOCKED, 1
    proto.replay = {1: [entry(7, 1)]}
    proto.flush_replays()  # emptied while Blocked: not yet
    assert notices == [0]
    proto._on_ready_phase({"phase": 1})  # released with nothing queued
    assert notices == [0, 0]

    proto.replay = {4: [entry(8, 4)]}
    proto.flush_replays()  # Running, and the watchdog flushes its queue
    assert notices == [0, 0, 0]
    assert world.network.messages_sent == 4


def test_injector_requires_arming():
    cfg = ProtocolConfig(checkpoint_interval=2e-5)
    world, ctl = build_ft_world(4, factory, cfg)
    ctl.inject_failure(5e-5, 1)
    # never armed: the run completes failure-free
    world.launch()
    world.run()
    assert ctl.recovery_reports == []


def test_epoch_monotone_per_rank():
    cfg = ProtocolConfig(checkpoint_interval=2e-5, rank_stagger=3e-6)
    world, ctl = build_ft_world(4, factory, cfg)
    world.launch()
    world.run()
    for proto in ctl.protocols:
        epochs = sorted(proto.state.spe)
        assert proto.state.epoch == epochs[-1]
        assert epochs == list(range(epochs[0], epochs[-1] + 1))
