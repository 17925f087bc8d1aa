"""End-to-end wiring: one registry threaded through engine, network,
protocol, log store and recovery, without perturbing the simulation."""

import numpy as np
import pytest

from repro.apps.stencil import Stencil2D
from repro.core import ProtocolConfig, build_ft_world
from repro.core.logstore import ReceiverChannel, SenderChannel
from repro.obs import MetricsRegistry, metric_rows
from repro.simmpi import World


def factory(rank, size):
    return Stencil2D(rank, size, niters=25, block=3)


def config():
    return ProtocolConfig(checkpoint_interval=2e-5, rank_stagger=3e-6)


def run_instrumented(with_failure=True):
    obs = MetricsRegistry()
    world, controller = build_ft_world(6, factory, config(), obs=obs)
    if with_failure:
        controller.inject_failure(4e-5, 3)
        controller.arm()
    world.launch()
    world.run()
    return world, controller, obs


def test_every_layer_reports():
    _world, _controller, obs = run_instrumented()
    names = {row["metric"] for row in metric_rows(obs)}
    # engine
    assert "engine.events_dispatched" in names
    assert "engine.queue_depth" in names
    # network
    assert "network.channel.messages" in names
    assert "network.channel.bytes" in names
    assert "network.in_flight" in names
    assert "network.messages_dropped" in names  # the kill purged inbound
    # protocol / logging
    assert "protocol.messages_logged" in names
    assert "protocol.acks_sent" in names
    # checkpoint / recovery
    assert "checkpoint.stored" in names
    assert "recovery.restores" in names
    assert "recovery.rounds" in names
    assert "recovery.round_duration_s" in names


def test_engine_counters_match_legacy_counters():
    world, controller, obs = run_instrumented()
    assert obs.get_counter_total("engine.events_dispatched") == (
        world.engine.events_dispatched
    )
    chan = obs.counter("network.channel.messages", ("src", "dst"))
    assert chan.total == world.network.messages_sent
    byte_chan = obs.counter("network.channel.bytes", ("src", "dst"))
    assert byte_chan.total == world.network.bytes_sent
    logged = obs.counter("protocol.messages_logged", ("epoch",))
    assert logged.total == sum(p.messages_logged for p in controller.protocols)
    log_bytes = obs.counter("protocol.log_bytes", ("epoch",))
    assert log_bytes.total == sum(p.bytes_logged for p in controller.protocols)
    acks = obs.counter("protocol.acks_sent", ("dup",))
    assert acks.total == sum(p.acks_sent for p in controller.protocols)


def test_recovery_round_duration_from_report():
    _world, controller, obs = run_instrumented()
    report = controller.recovery_reports[0]
    h = obs.histogram("recovery.round_duration_s")
    assert h.count == len(controller.recovery_reports)
    assert h.sum == pytest.approx(sum(
        r.finished_at - r.started_at for r in controller.recovery_reports
    ))
    assert obs.get_counter_total("recovery.rollbacks") >= len(report.rolled_back)


def test_trace_stream_records_failure_and_recovery():
    # every lifecycle fact is in the flight stream, the recovery report
    # and the counters — the one log per layer
    from repro.obs.flight import FlightKind, record_to_dict

    _world, controller, obs = run_instrumented()
    flight = obs.flight
    kinds = {rec[1] for rec in flight.records()}
    for expected in (FlightKind.CHECKPOINT, FlightKind.FAILURE,
                     FlightKind.RL_FIXED, FlightKind.RESTORE):
        assert expected in kinds, f"missing flight kind {expected}"
    (report,) = controller.recovery_reports
    (failure,) = flight.records(kind=FlightKind.FAILURE)
    (fixed,) = flight.records(kind=FlightKind.RL_FIXED)
    assert failure[2] == 3 and record_to_dict(failure)["extra"] == 1
    assert report.round_no == 1 and report.failed == [3]
    assert report.started_at <= fixed[0] <= report.finished_at
    assert record_to_dict(fixed)["extra"] == report.rolled_back
    restored = sorted(rec[2] for rec in flight.records(kind=FlightKind.RESTORE))
    assert restored == report.rolled_back
    # the kill purged the failed rank's inbound traffic
    dropped = obs.counter("network.messages_dropped", ("dst",))
    assert set(dropped.values) == {(3,)}
    # records are stamped with the virtual clock, in nondecreasing order
    times = [rec[0] for rec in flight.records()]
    assert times == sorted(times)


def test_instrumentation_does_not_perturb_the_simulation():
    """Bit-reproducibility: an instrumented run and a bare run produce the
    same virtual timeline, message count and numerical results."""
    ref_world, ref_ctl = build_ft_world(6, factory, config())
    ref_world.launch()
    ref_world.run()

    obs = MetricsRegistry()
    world, _ctl = build_ft_world(6, factory, config(), obs=obs)
    world.launch()
    world.run()

    assert world.engine.now == ref_world.engine.now
    assert world.engine.events_dispatched == ref_world.engine.events_dispatched
    assert world.network.messages_sent == ref_world.network.messages_sent
    for rank in range(6):
        np.testing.assert_array_equal(
            ref_world.programs[rank].result(), world.programs[rank].result()
        )


def test_plain_world_accepts_registry():
    obs = MetricsRegistry()
    world = World(4, lambda r, s: Stencil2D(r, s, niters=10, block=2), obs=obs)
    world.launch()
    world.run()
    assert obs.get_counter_total("engine.events_dispatched") > 0
    # no protocol attached: no logging metrics
    names = {row["metric"] for row in metric_rows(obs)}
    assert "protocol.messages_logged" not in names


def test_logstore_channels_report():
    obs = MetricsRegistry()
    sender = SenderChannel(obs=obs)
    receiver = ReceiverChannel(obs=obs)
    m1, _ = sender.send(64, payload=b"a")
    receiver.deliver(m1)
    receiver.advance_epoch()
    m2, _ = sender.send(64, payload=b"b")
    ack = receiver.deliver(m2)
    assert ack is not None
    sender.on_explicit_ack(*ack)
    sender.on_piggyback(*receiver.piggyback())
    names = {row["metric"] for row in metric_rows(obs)}
    assert {"logstore.messages_logged", "logstore.log_bytes",
            "logstore.explicit_acks", "logstore.piggybacks_applied",
            "logstore.recv_explicit_acks"} <= names
    assert obs.get_counter_total("logstore.explicit_acks") == 1
    assert obs.get_counter_total("logstore.piggybacks_applied") == 1


def test_off_is_none_in_every_component():
    world, controller = build_ft_world(6, factory, config())
    assert world.obs is None
    assert world.engine.obs is None and world.network.obs is None
    assert controller.obs is None
    assert controller.recovery.obs is None and controller.recovery.flight is None
    assert all(p.obs is None and p.flight is None for p in controller.protocols)
    controller.inject_failure(4e-5, 3)
    controller.arm()
    world.launch()
    world.run()
    assert len(controller.recovery_reports) == 1
