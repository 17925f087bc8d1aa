"""Unit tests for the FIFO network and timing model."""

import itertools
import math
import random
from collections import Counter

import pytest

from repro.errors import ConfigError, SimulationError
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


@pytest.mark.parametrize("jitter", [math.nan, -2.0, -1e-9, 1.0, math.inf])
def test_jitter_outside_unit_interval_is_refused(jitter):
    # NaN runs a world to virtual time NaN, a negative jitter makes transit
    # times negative: either would silently stand for a delivery schedule
    with pytest.raises(ConfigError, match=r"jitter must be in \[0, 1\)"):
        TimingModel(jitter=jitter)


def test_jitter_in_unit_interval_is_accepted():
    assert [TimingModel(jitter=j).jitter for j in (0.0, 0.35, 0.999)] == [
        0.0, 0.35, 0.999]


def test_zero_latency_model_works():
    eng, net, inboxes = make_net(TimingModel(latency=0.0, bandwidth=1e12,
                                             send_overhead=0.0))
    net.transmit(env(0, 1))
    eng.run()
    assert len(inboxes[1]) == 1


# ----------------------------------------------------------------------
# Purges against a reference in-flight index
# ----------------------------------------------------------------------
# The network keeps no in-flight index: a purge finds a dead rank's queued
# deliveries, envelopes and ack records alike, in the engine's calendar.
# The index lives here instead, in the test, and seeded random programs
# send and purge against both: same dropped sets and counts, the reference
# dispatch order, same per-rank in-flight counts and engine.pending.

_RANKS = range(4)
#: transit = 1 + size / 4 and no sender CPU: binary fractions, so arrivals
#: tie exactly and the reference computes them bit for bit
_GRID = TimingModel(latency=1.0, bandwidth=4.0, send_overhead=0.0)


def _run_against_reference(seed):
    """Run random program ``seed``; returns its coverage counts."""
    eng = Engine()
    net = Network(eng, _GRID)
    ref = {}     # key -> (arrival, key, dst, is_ack): the reference index
    last = {}    # channel -> arrival of its last message (the FIFO clamp)
    keys = itertools.count()
    seen = Counter()

    def send(rng):
        src, dst, size = rng.choice(_RANKS), rng.choice(_RANKS), rng.choice((0, 0, 1, 2))
        key, is_ack = next(keys), rng.random() < 0.5
        arrival = eng.now + 1.0 + size / 4.0
        if arrival <= last.get((src, dst), -1.0):
            arrival = math.nextafter(last[(src, dst)], math.inf)
        last[(src, dst)] = arrival
        ref[key] = (arrival, key, dst, is_ack)
        if is_ack:
            net.transmit_ack(src, dst, key, size)
        else:
            net.transmit(Envelope(src, dst, key, b"", size))

    def purge(rng, inside):
        rank = rng.choice(_RANKS)
        doomed = [entry for entry in ref.values() if entry[2] == rank]
        assert net.purge_inbound(rank) == len(doomed)
        for arrival, key, _, is_ack in doomed:
            del ref[key]
            seen["acks_dropped"] += is_ack
            seen["same_instant_dropped"] += inside and arrival == eng.now
        seen["dropped"] += len(doomed)

    def check():
        for rank in _RANKS:
            assert net.in_flight_count(rank) \
                == sum(entry[2] == rank for entry in ref.values())
        assert net.in_flight_count() == len(ref) == eng.pending
        assert net.messages_dropped == seen["dropped"]

    def act(rng, inside):
        if rng.randrange(5) == 0:
            purge(rng, inside)
        else:
            send(rng)
        check()

    def arrive(key, dst):
        assert key in ref, f"message {key} was purged, yet delivered"
        arrival, _, want_dst, _ = entry = ref.pop(key)
        assert (eng.now, dst) == (arrival, want_dst)
        # the reference dispatch order: by arrival, then by send
        assert all(entry < other for other in ref.values())
        rng = random.Random(seed * 1_000_003 + key)
        for _ in range(rng.choice((0, 0, 1, 2, 3))):
            act(rng, inside=True)

    for rank in _RANKS:
        net.attach(rank, lambda env, r=rank: arrive(env.tag, r),
                   lambda src, key, r=rank: arrive(key, r))
    outside = random.Random(seed)
    for _ in range(30):
        act(outside, inside=False)
    for _ in range(40):
        # stops on and between instants, and inside one
        if outside.randrange(2):
            eng.run(until=eng.now + outside.choice((0.0, 0.25, 0.5, 1.0)))
        else:
            eng.run(max_events=outside.randrange(6))
        check()
        for _ in range(outside.randrange(4)):
            act(outside, inside=False)
    eng.run()
    check()
    assert not ref and net.messages_delivered + seen["dropped"] == net.messages_sent
    return seen


@pytest.mark.parametrize("seed", range(20))
def test_purges_match_a_reference_in_flight_index(seed):
    _run_against_reference(seed)


def test_the_purge_programs_reach_acks_and_the_walked_instant():
    """The programs are only evidence if purges drop ack records and later
    members of the instant a delivery is dispatching."""
    seen = sum((_run_against_reference(seed) for seed in range(20)), Counter())
    assert seen["acks_dropped"] > 100
    assert seen["same_instant_dropped"] > 20


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
