"""Unit tests for the FIFO network and timing model."""

import pytest

from repro.errors import SimulationError
from repro.simmpi.engine import Engine
from repro.simmpi.message import Envelope
from repro.simmpi.network import Network, TimingModel


def make_net(timing=None, ranks=(0, 1, 2)):
    eng = Engine()
    net = Network(eng, timing)
    inboxes = {r: [] for r in ranks}
    for r in ranks:
        net.attach(r, lambda env, r=r: inboxes[r].append(env))
    return eng, net, inboxes


def env(src, dst, size=8, tag=0):
    return Envelope(src=src, dst=dst, tag=tag, payload=b"x" * size, size=size)


def test_basic_delivery():
    eng, net, inboxes = make_net()
    net.transmit(env(0, 1))
    eng.run()
    assert len(inboxes[1]) == 1


def test_transit_time_latency_plus_bandwidth():
    tm = TimingModel(latency=1e-6, bandwidth=1e9)
    assert tm.transit_time(0) == pytest.approx(1e-6)
    assert tm.transit_time(1000) == pytest.approx(2e-6)


def test_sender_cpu_time():
    tm = TimingModel(send_overhead=1e-7, per_byte_overhead=1e-9)
    assert tm.sender_cpu_time(100) == pytest.approx(1e-7 + 1e-7)


def test_fifo_within_channel_despite_sizes():
    # A large (slow) message followed by a tiny one on the same channel must
    # not be overtaken.
    eng, net, inboxes = make_net(TimingModel(latency=1e-6, bandwidth=1e6))
    big = env(0, 1, size=10_000, tag=1)
    small = env(0, 1, size=1, tag=2)
    net.transmit(big)
    net.transmit(small)
    eng.run()
    assert [e.tag for e in inboxes[1]] == [1, 2]


def test_cross_channel_reordering_allowed():
    # different channels: a later small message from another sender may
    # arrive first
    eng, net, inboxes = make_net(TimingModel(latency=1e-6, bandwidth=1e6))
    net.transmit(env(0, 2, size=100_000, tag=1))
    net.transmit(env(1, 2, size=1, tag=2))
    eng.run()
    assert [e.tag for e in inboxes[2]] == [2, 1]


def test_unknown_destination_rejected():
    eng, net, _ = make_net()
    with pytest.raises(SimulationError):
        net.transmit(env(0, 99))


def test_purge_inbound_drops_in_flight():
    eng, net, inboxes = make_net()
    net.transmit(env(0, 1))
    net.transmit(env(0, 1))
    assert net.purge_inbound(1) == 2
    eng.run()
    assert inboxes[1] == []
    assert net.messages_dropped == 2


def test_purge_all():
    eng, net, inboxes = make_net()
    net.transmit(env(0, 1))
    net.transmit(env(1, 2))
    assert net.purge_all() == 2
    eng.run()
    assert inboxes[1] == [] and inboxes[2] == []


def test_in_flight_count():
    eng, net, _ = make_net()
    net.transmit(env(0, 1))
    net.transmit(env(0, 2))
    assert net.in_flight_count() == 2
    assert net.in_flight_count(1) == 1
    eng.run()
    assert net.in_flight_count() == 0


def test_counters():
    eng, net, _ = make_net()
    net.transmit(env(0, 1, size=100))
    net.transmit(env(0, 2, size=50))
    eng.run()
    assert net.messages_sent == 2
    assert net.messages_delivered == 2
    assert net.bytes_sent == 150


def test_jitter_is_deterministic_per_seed():
    def arrivals(seed):
        eng = Engine()
        net = Network(eng, TimingModel(latency=1e-6, bandwidth=1e9, jitter=0.5),
                      seed=seed)
        times = []
        net.attach(1, lambda e: times.append(eng.now))
        for _ in range(10):
            net.transmit(env(0, 1))
        eng.run()
        return times

    assert arrivals(7) == arrivals(7)
    assert arrivals(7) != arrivals(8)


def test_zero_latency_model_works():
    eng, net, inboxes = make_net(TimingModel(latency=0.0, bandwidth=1e12,
                                             send_overhead=0.0))
    net.transmit(env(0, 1))
    eng.run()
    assert len(inboxes[1]) == 1


# ----------------------------------------------------------------------
# Regressions: uid-indexed in-flight tracking
# ----------------------------------------------------------------------
def test_in_flight_indexed_by_uid():
    # in-flight envelopes are a uid-keyed dict so a delivery removes its
    # own entry in O(1) instead of rebuilding the destination's list
    eng, net, _ = make_net()
    e1, e2 = env(0, 1), env(0, 1)
    net.transmit(e1)
    net.transmit(e2)
    assert set(net._in_flight[1]) == {e1.uid, e2.uid}
    eng.run(max_events=1)
    assert set(net._in_flight[1]) == {e2.uid}
    eng.run()
    assert net._in_flight[1] == {}


def test_purge_after_partial_delivery():
    eng, net, inboxes = make_net()
    for tag in (1, 2, 3):
        net.transmit(env(0, 1, tag=tag))
    eng.run(max_events=1)
    assert [e.tag for e in inboxes[1]] == [1]
    assert net.purge_inbound(1) == 2
    eng.run()
    assert [e.tag for e in inboxes[1]] == [1]
    assert net.messages_dropped == 2
    assert net.in_flight_count(1) == 0


def test_purge_cancels_exactly_the_members_in_flight():
    # deliveries of one instant, bound for different ranks: purging one
    # destination leaves holes for its members only
    eng, net, inboxes = make_net(ranks=(0, 1, 2, 3))
    sent = [env(0, 1, tag=1), env(0, 2, tag=2), env(3, 1, tag=3),
            env(0, 3, tag=4)]
    for e in sent:
        net.transmit(e)
    assert eng.pending == 4
    assert net.purge_inbound(1) == 2
    assert eng.pending == 2
    assert net.purge_inbound(1) == 0                   # nothing left to drop
    eng.run()
    assert inboxes[1] == []
    assert [e.tag for e in inboxes[2]] == [2]
    assert [e.tag for e in inboxes[3]] == [4]
    assert (net.messages_delivered, net.messages_dropped) == (2, 2)
    assert eng.pending == 0 and net.in_flight_count() == 0


def test_kill_during_burst_skips_later_member_of_the_same_run():
    # delivering an earlier member kills the destination of a LATER member
    # of the instant that is being dispatched: the purge cancels it in the
    # bucket under the dispatch walk, which must skip the hole
    eng = Engine()
    net = Network(eng)
    inboxes = {1: [], 2: []}

    def kills_rank_2(e):
        inboxes[1].append(e)
        assert net.purge_inbound(2) == 1
        assert eng.pending == 0

    net.attach(1, kills_rank_2)
    net.attach(2, inboxes[2].append)
    first, doomed = env(0, 1, tag=1), env(0, 2, tag=2)
    net.transmit(first)
    net.transmit(doomed)
    assert eng.pending == 2
    eng.run()
    assert [e.tag for e in inboxes[1]] == [1]
    assert inboxes[2] == []
    assert net.messages_delivered == 1
    assert net.messages_dropped == 1                   # counted once
    assert eng.events_dispatched == 1                  # a hole is no event
    assert eng.pending == 0 and net.in_flight_count() == 0
    assert eng.queue_garbage == 0


def test_total_in_flight_is_the_counters_difference():
    # the total is O(1) (sent - delivered - dropped); it must equal the
    # per-rank sum before, during and after a purge that lands inside an
    # instant (an earlier delivery of the instant kills a later member's
    # destination)
    eng = Engine()
    net = Network(eng)
    ranks = (1, 2, 3)
    seen = []

    def check():
        total = net.in_flight_count()
        assert total == sum(net.in_flight_count(r) for r in ranks)
        seen.append(total)

    def kills_rank_2(e):
        check()                                        # during the instant
        assert net.purge_inbound(2) == 2
        check()                                        # right after the purge

    net.attach(1, kills_rank_2)
    net.attach(2, lambda e: check())
    net.attach(3, lambda e: check())
    check()                                            # nothing sent yet
    for e in (env(0, 1, tag=1), env(0, 2, tag=2), env(0, 3, tag=3),
              env(1, 2, tag=4)):
        net.transmit(e)
    check()
    eng.run()
    check()
    assert seen == [0, 4, 3, 1, 0, 0]
    assert (net.messages_sent, net.messages_delivered,
            net.messages_dropped) == (4, 2, 2)


# ----------------------------------------------------------------------
# Regression: FIFO tie-break at large virtual times
# ----------------------------------------------------------------------
def test_fifo_strict_at_large_virtual_time():
    # the old `prev + 1e-12` epsilon is absorbed by float rounding once
    # the clock is large, collapsing a channel's arrivals onto a single
    # instant; nextafter always yields a strictly later representable time
    eng = Engine(start_time=1e9)
    net = Network(eng, TimingModel(latency=0.0, bandwidth=1e12,
                                   send_overhead=0.0))
    order, times = [], []
    net.attach(1, lambda e: (order.append(e.tag), times.append(eng.now)))
    for tag in range(5):
        net.transmit(env(0, 1, size=1, tag=tag))
    eng.run()
    assert order == [0, 1, 2, 3, 4]
    assert all(b > a for a, b in zip(times, times[1:])), times
