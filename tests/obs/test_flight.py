"""Flight recorder: every record kept, protocol wiring, the stream
staying out of registry snapshots, and the zero-perturbation guarantee
when disabled."""

from types import SimpleNamespace

import numpy as np

from repro.apps.pingpong import PingPong
from repro.apps.stencil import Stencil2D
from repro.core import ProtocolConfig, build_ft_world
from repro.obs import (
    FlightKind,
    FlightRecorder,
    MetricsRegistry,
    RECORD_FIELDS,
    dump_metrics,
    record_to_dict,
)


def factory(rank, size):
    return Stencil2D(rank, size, niters=25, block=3)


def config():
    return ProtocolConfig(checkpoint_interval=2e-5, rank_stagger=3e-6)


def run_instrumented(with_failure=True, **registry_kwargs):
    obs = MetricsRegistry(**registry_kwargs)
    world, controller = build_ft_world(6, factory, config(), obs=obs,
                                       record_sequences=True)
    if with_failure:
        controller.inject_failure(4e-5, 3)
        controller.arm()
    world.launch()
    world.run()
    return world, controller, obs


# ----------------------------------------------------------------------
# Unit: record streams
# ----------------------------------------------------------------------
def test_records_filter_by_rank_and_kind_in_time_order():
    fr = FlightRecorder()
    clock = SimpleNamespace(now=3.0)
    fr.bind_time_source(clock)
    fr.record(1, FlightKind.SEND, uid=10)
    clock.now = 1.0
    fr.record(0, FlightKind.DELIVER, uid=10)
    clock.now = 2.0
    fr.record(0, FlightKind.SEND, uid=11)
    assert [r[4] for r in fr.records(kind=FlightKind.SEND)] == [11, 10]
    assert [r[0] for r in fr.records()] == [1.0, 2.0, 3.0]  # global merge
    assert fr.ranks() == [0, 1]


def test_record_to_dict_layout():
    fr = FlightRecorder()
    fr.record(2, FlightKind.LOG, peer=5, uid=7, epoch_send=3, epoch_recv=4,
              phase=2, cause_uid=1, extra="x")
    d = record_to_dict(next(fr.records(rank=2)))
    assert set(d) == set(RECORD_FIELDS)
    assert (d["rank"], d["peer"], d["uid"]) == (2, 5, 7)
    assert (d["epoch_send"], d["epoch_recv"]) == (3, 4)
    # None extra is elided
    fr.record(2, FlightKind.ACK)
    d2 = record_to_dict(list(fr.records(rank=2))[-1])
    assert "extra" not in d2


# ----------------------------------------------------------------------
# Integration: protocol wiring
# ----------------------------------------------------------------------
def test_failure_run_records_every_lifecycle_kind():
    _world, controller, obs = run_instrumented()
    kinds = {rec[1] for rec in obs.flight.records()}
    expected = {
        FlightKind.SEND, FlightKind.DELIVER, FlightKind.ACK,
        FlightKind.CONFIRM, FlightKind.LOG, FlightKind.CHECKPOINT,
        FlightKind.EPOCH, FlightKind.FAILURE, FlightKind.SPE,
        FlightKind.RL_STEP, FlightKind.RL_FIXED, FlightKind.ROLLBACK,
        FlightKind.RESTORE, FlightKind.REPLAY, FlightKind.RUNNING,
        FlightKind.SUPPRESS,
    }
    assert expected <= kinds, f"missing kinds: {expected - kinds}"
    # rl records live on the coordinator pseudo-rank's lane
    coord = controller.recovery_rank
    assert any(rec[2] == coord for rec in obs.flight.records(kind=FlightKind.RL_FIXED))


def test_send_and_deliver_share_uid():
    _world, _controller, obs = run_instrumented(with_failure=False)
    sent = {rec[4] for rec in obs.flight.records(kind=FlightKind.SEND)}
    delivered = {rec[4] for rec in obs.flight.records(kind=FlightKind.DELIVER)}
    assert delivered  # something was delivered
    assert delivered <= sent  # every delivery traces back to a recorded send


def test_a_long_run_keeps_every_record():
    # 4,200 round trips put ~16,800 records on rank 0's lane, past the
    # 16,384 a per-rank ring once held: the stream's start must survive
    obs = MetricsRegistry()
    world, controller = build_ft_world(
        2, lambda rank, size: PingPong(rank, size, sizes=[8], reps=4200),
        ProtocolConfig(checkpoint_interval=1e-3), obs=obs)
    try:
        world.launch()
        world.run()
    finally:
        controller.close()
    assert obs.flight.total_records > 2 * 16_384
    assert len(list(obs.flight.records(rank=0))) > 16_384
    sends = list(obs.flight.records(rank=0, kind=FlightKind.SEND))
    assert len(sends) == world.procs[0].app_messages_sent == 4200
    assert [rec[-1] for rec in sends] == list(range(1, 4201))  # dates


def test_registry_snapshot_carries_no_flight():
    # the stream is read where it was recorded; a snapshot ships metrics
    # and time series only, and merging one leaves a recorder empty
    assert set(MetricsRegistry().snapshot()) == {"instruments", "timeseries"}
    _world, _controller, obs = run_instrumented()
    assert obs.flight.total_records > 0
    snap = obs.snapshot()
    assert set(snap) == {"instruments", "timeseries"}
    other = MetricsRegistry()
    other.merge(snap)
    assert other.flight.total_records == 0


def test_flight_off_is_null_and_bit_identical():
    # flight off is None: same simulation results as a fully
    # uninstrumented run, same metrics as a flight-on run
    world, controller, obs = run_instrumented(flight=False)
    assert obs.flight is None
    assert controller.protocols[0].flight is None
    assert controller.recovery.flight is None
    assert "flight" not in obs.snapshot()
    _, _, flight_on = run_instrumented()
    assert flight_on.flight.total_records > 0
    assert dump_metrics(obs, "jsonl") == dump_metrics(flight_on, "jsonl")
    ref_world, ref_controller = build_ft_world(6, factory, config(),
                                               record_sequences=True)
    ref_controller.inject_failure(4e-5, 3)
    ref_controller.arm()
    ref_world.launch()
    ref_world.run()
    for r in range(6):
        assert np.allclose(world.programs[r].result(),
                           ref_world.programs[r].result())
    assert (world.tracer.logical_send_sequences()
            == ref_world.tracer.logical_send_sequences())
    assert world.engine.now == ref_world.engine.now


def test_flight_enabled_does_not_perturb_results():
    world, _c, _obs = run_instrumented()
    ref_world, ref_c = build_ft_world(6, factory, config())
    ref_c.inject_failure(4e-5, 3)
    ref_c.arm()
    ref_world.launch()
    ref_world.run()
    for r in range(6):
        assert np.allclose(world.programs[r].result(),
                           ref_world.programs[r].result())
    assert world.engine.now == ref_world.engine.now
